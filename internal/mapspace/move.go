package mapspace

import (
	"math/rand"

	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Move is one reversible local-search mutation of a mapping: replace one
// dimension's tiling chain, replace one level's temporal loop order, or
// toggle one storage-bypass bit. A Move is drawn by a Mutator (which owns
// its storage), applied to a mapping with Apply and — when the searcher
// rejects the candidate — reverted exactly with Undo.
//
// Apply patches the mapping's memoized dense lowering in place (only the
// affected row or mask entry), so the sample→lower→evaluate pipeline
// downstream never re-lowers or re-validates the untouched dimensions and
// levels. The move's Delta tells the incremental evaluator
// (nest.Plan.EvaluateDelta) exactly which cached contributions to
// recompute.
//
// The usual single-owner mutation contract applies: the mapping must not be
// shared with concurrent readers while moves are applied to it.
type Move struct {
	sp    *Space
	delta mapping.Delta
	dim   string

	chain   []int    // proposed chain (outermost-first), DeltaChain
	perm    []string // proposed loop order, DeltaPerm
	permIDs []int16  // perm as workload dim ids, kept in lockstep

	// State captured by Apply for exact reversal. The dense-form fields
	// (oldPermIDs, oldMask, oldMaskLen) are captured only when Apply found a
	// lowering to patch, which patched records.
	oldChain     []int
	oldPerm      []string
	oldPermIDs   []int16
	oldKeep      bool
	oldMask      int8
	oldMaskLen   int
	createdSlice bool // Apply allocated m.Keep
	createdMap   bool // Apply allocated m.Keep[Level]
	patched      bool // Apply patched a dense lowering in place
	applied      bool
}

// Delta returns the integer-id description of the move for the delta
// evaluation kernel.
func (mv *Move) Delta() mapping.Delta { return mv.delta }

// Apply mutates m in place with the proposed change, saving whatever state
// Undo needs to restore it exactly. When m carries a dense lowering for this
// space's evaluator context, only the affected chain row, perm row or keep
// mask is patched; otherwise the lowering is invalidated wholesale and the
// next Dense call rebuilds it.
//
//ruby:hotpath
func (mv *Move) Apply(m *mapping.Mapping) {
	if mv.applied {
		panic("mapspace: Move.Apply called twice without Undo or a new proposal")
	}
	mv.applied = true
	s := mv.sp
	dn := m.UpdatableDense(s.Work, s.Arch, s.slots)
	mv.patched = dn != nil
	switch mv.delta.Kind {
	case mapping.DeltaChain:
		fs := m.Factors[mv.dim]
		if len(fs) != len(s.slots) {
			// Cold path: the mapping was never shaped for this space.
			fs = make([]int, len(s.slots))
			if m.Factors == nil {
				m.Factors = make(map[string][]int, len(s.dimNames))
			}
			m.Factors[mv.dim] = fs
		}
		copy(mv.oldChain, fs)
		copy(fs, mv.chain)
		if dn != nil {
			dn.SetChainRow(mv.delta.Dim, s.Work.Bound(mv.dim), fs)
		} else {
			m.Invalidate()
		}
	case mapping.DeltaPerm:
		p := m.Perms[mv.delta.Level]
		copy(mv.oldPerm, p)
		copy(p, mv.perm)
		if dn != nil {
			base := mv.delta.Level * dn.NDims
			copy(mv.oldPermIDs, dn.Perm[base:base+dn.NDims])
			dn.SetPermRowIDs(mv.delta.Level, mv.permIDs)
		} else {
			m.Invalidate()
		}
	case mapping.DeltaKeep:
		li, r := mv.delta.Level, mv.delta.Role
		mv.createdSlice = m.Keep == nil
		if mv.createdSlice {
			m.Keep = make([]map[workload.Role]bool, len(s.Arch.Levels))
		}
		mv.createdMap = m.Keep[li] == nil
		if mv.createdMap {
			keep := make(map[workload.Role]bool, len(workload.Roles))
			l := &s.Arch.Levels[li]
			for _, rr := range workload.Roles {
				if l.KeepsRole(rr, false) {
					keep[rr] = true
				}
			}
			m.Keep[li] = keep
		}
		mv.oldKeep = m.Keep[li][r]
		m.Keep[li][r] = !mv.oldKeep
		if dn != nil {
			mv.oldMaskLen = len(dn.KeepMask)
			if li < mv.oldMaskLen {
				mv.oldMask = dn.KeepMask[li]
			} else {
				mv.oldMask = -1
			}
			var mask int8
			for _, rr := range workload.Roles {
				if m.Keep[li][rr] {
					mask |= int8(mapping.RoleBit(rr))
				}
			}
			dn.SetKeepMask(li, len(m.Keep), mask)
		} else {
			m.Invalidate()
		}
	}
}

// Undo restores m to its exact pre-Apply state, including the
// representation-level details Key and Encode observe (nil-ness of bypass
// overrides included) and the dense lowering. A lowering Apply patched is
// patched back; one computed after Apply (the mapping was lowered in
// between) holds none of the saved rows, so Undo drops it and the next
// Dense call relowers the restored mapping.
//
//ruby:hotpath
func (mv *Move) Undo(m *mapping.Mapping) {
	if !mv.applied {
		panic("mapspace: Move.Undo without a preceding Apply")
	}
	mv.applied = false
	s := mv.sp
	var dn *mapping.Dense
	if mv.patched {
		dn = m.UpdatableDense(s.Work, s.Arch, s.slots)
	}
	switch mv.delta.Kind {
	case mapping.DeltaChain:
		fs := m.Factors[mv.dim]
		copy(fs, mv.oldChain)
		if dn != nil {
			dn.SetChainRow(mv.delta.Dim, s.Work.Bound(mv.dim), fs)
		} else {
			m.Invalidate()
		}
	case mapping.DeltaPerm:
		p := m.Perms[mv.delta.Level]
		copy(p, mv.oldPerm)
		if dn != nil {
			dn.SetPermRowIDs(mv.delta.Level, mv.oldPermIDs)
		} else {
			m.Invalidate()
		}
	case mapping.DeltaKeep:
		li := mv.delta.Level
		if mv.createdMap {
			m.Keep[li] = nil
		} else {
			m.Keep[li][mv.delta.Role] = mv.oldKeep
		}
		if mv.createdSlice {
			m.Keep = nil
		}
		if dn != nil {
			if li < mv.oldMaskLen {
				dn.KeepMask[li] = mv.oldMask
			}
			dn.TruncKeepMask(mv.oldMaskLen)
		} else {
			m.Invalidate()
		}
	}
}

// Mutator draws Moves over one space. It owns the proposal scratch (chain,
// perm, fanout budget, divisor cache) plus a single Move that is reused
// across proposals, so steady-state local search allocates nothing. One
// Mutator per goroutine; the Space stays shared.
//
// Proposing a new move abandons the previous one: an applied move that was
// never undone becomes a permanent part of the mapping (that is how accepted
// moves and genetic mutation work).
type Mutator struct {
	sp     *Space
	budget []int
	dc     *divCache
	mv     Move

	// Togglable (level, role) bypass pairs, fixed at construction. Empty
	// unless the space explores bypass.
	bypassLvls  []int
	bypassRoles []workload.Role
}

// NewMutator builds a Mutator over the space.
func (s *Space) NewMutator() *Mutator {
	mu := &Mutator{sp: s, budget: make([]int, len(s.slots)), dc: s.newDivCache()}
	mu.mv.sp = s
	mu.mv.chain = make([]int, len(s.slots))
	mu.mv.oldChain = make([]int, len(s.slots))
	mu.mv.perm = make([]string, len(s.dimNames))
	mu.mv.permIDs = make([]int16, len(s.dimNames))
	mu.mv.oldPerm = make([]string, len(s.dimNames))
	mu.mv.oldPermIDs = make([]int16, len(s.dimNames))
	if s.Cons.ExploreBypass {
		n := len(s.Arch.Levels)
		for li := 1; li < n-1; li++ {
			l := &s.Arch.Levels[li]
			for _, r := range workload.Roles {
				if l.KeepsRole(r, false) {
					mu.bypassLvls = append(mu.bypassLvls, li)
					mu.bypassRoles = append(mu.bypassRoles, r)
				}
			}
		}
	}
	return mu
}

// NumDims returns the number of workload dimensions the mutator proposes
// over (chain moves address them by declaration-order id).
func (mu *Mutator) NumDims() int { return len(mu.sp.dimNames) }

// Space returns the space the mutator proposes over.
func (mu *Mutator) Space() *Space { return mu.sp }

// Propose draws the next move with the searchers' historical proposal
// distribution: 1/4 loop-order swaps, otherwise a tiling-chain resample —
// and, in bypass-exploring spaces, a 1/8 share of the remainder toggles a
// bypass bit. For perm and chain proposals the rng draw sequence matches the
// pre-Move mutation code (SamplePerm / SampleChain) exactly, so seeded
// searches reproduce their historical trajectories.
//
//ruby:hotpath
func (mu *Mutator) Propose(rng *rand.Rand) *Move {
	if rng.Intn(4) == 0 {
		return mu.ProposePerm(rng, rng.Intn(len(mu.sp.Arch.Levels)))
	}
	if len(mu.bypassLvls) > 0 && rng.Intn(8) == 0 {
		k := rng.Intn(len(mu.bypassLvls))
		return mu.ProposeKeep(mu.bypassLvls[k], mu.bypassRoles[k])
	}
	return mu.ProposeChainID(rng, rng.Intn(len(mu.sp.dimNames)))
}

// ProposeChain draws a fresh tiling chain for the named dimension against a
// full fanout budget (the joint fanout across dimensions is re-checked by
// the evaluator), with the same rng draws as Space.SampleChain.
//
//ruby:hotpath
func (mu *Mutator) ProposeChain(rng *rand.Rand, d string) *Move {
	for di, name := range mu.sp.dimNames {
		if name == d {
			return mu.ProposeChainID(rng, di)
		}
	}
	panic("mapspace: ProposeChain of unknown dimension " + d)
}

// ProposeChainID is ProposeChain by dimension id (declaration order).
//
//ruby:hotpath
func (mu *Mutator) ProposeChainID(rng *rand.Rand, di int) *Move {
	s := mu.sp
	mv := &mu.mv
	mv.applied = false
	mv.delta = mapping.Delta{Kind: mapping.DeltaChain, Dim: di}
	mv.dim = s.dimNames[di]
	s.fullBudget(mu.budget)
	s.sampleChainInto(rng, di, mu.budget, mv.chain, mu.dc)
	return mv
}

// ProposeChainSet proposes replacing dimension di's tiling chain with the
// given chain (outermost-first, len(Slots()) entries). Draw-free, so
// systematic chain scans (the guided searcher's exact coordinate descent
// over Space.EnumerateChains) consume no randomness. The chain's structural
// validity is the caller's concern; the evaluator re-checks fanout and
// capacity as usual.
//
//ruby:hotpath
func (mu *Mutator) ProposeChainSet(di int, chain []int) *Move {
	mv := &mu.mv
	mv.applied = false
	mv.delta = mapping.Delta{Kind: mapping.DeltaChain, Dim: di}
	mv.dim = mu.sp.dimNames[di]
	copy(mv.chain, chain)
	return mv
}

// ProposePerm draws a fresh loop order for level li, with the same rng draws
// as Space.SamplePerm (the canonical order under FixedPerms).
//
//ruby:hotpath
func (mu *Mutator) ProposePerm(rng *rand.Rand, li int) *Move {
	s := mu.sp
	mv := &mu.mv
	mv.applied = false
	mv.delta = mapping.Delta{Kind: mapping.DeltaPerm, Level: li}
	copy(mv.perm, s.dimNames)
	for i := range mv.permIDs {
		mv.permIDs[i] = int16(i) // dimNames is workload declaration order
	}
	if !s.Cons.FixedPerms {
		rng.Shuffle(len(mv.perm), func(i, j int) {
			mv.perm[i], mv.perm[j] = mv.perm[j], mv.perm[i]
			mv.permIDs[i], mv.permIDs[j] = mv.permIDs[j], mv.permIDs[i]
		})
	}
	return mv
}

// ProposeKeep proposes toggling whether level li stores role r. The pair
// must be togglable: an intermediate level (not DRAM, not the innermost)
// whose architecture policy stores the role.
func (mu *Mutator) ProposeKeep(li int, r workload.Role) *Move {
	mv := &mu.mv
	mv.applied = false
	mv.delta = mapping.Delta{Kind: mapping.DeltaKeep, Level: li, Role: r}
	return mv
}

// NumBypass returns the number of togglable (level, role) bypass pairs
// (zero unless the space explores bypass), addressable by ProposeKeepAt.
func (mu *Mutator) NumBypass() int { return len(mu.bypassLvls) }

// ProposeKeepAt proposes toggling the k-th togglable bypass pair,
// 0 <= k < NumBypass. Draw-free, so systematic neighborhood scans (the
// guided searcher) can walk every pair without consuming randomness.
func (mu *Mutator) ProposeKeepAt(k int) *Move {
	return mu.ProposeKeep(mu.bypassLvls[k], mu.bypassRoles[k])
}
