package nest

import (
	"ruby/internal/mapping"
)

// DeltaEval is one incremental-evaluation session over a single mapping: it
// caches, per scope, the contributions the full kernel computes — per-link
// traffic records, per-tensor datapath terms, per-dimension latency factors,
// plus the integer trips/volumes/kept tables in its private scratch — and
// re-derives only the scopes a Move invalidates. Recombining cached and
// recomputed contributions replays every floating-point addition in the
// exact order of the full kernel, so EvaluateDelta is bit-identical to
// EvaluateInto on the same dense mapping (TestDeltaMatchesFull pins this
// over long random move sequences).
//
// Protocol: Seed with the lowered mapping, then repeatedly — mutate the
// mapping through a mapspace.Move, call Plan.EvaluateDelta with the move's
// Delta, and either Commit (keep the move applied) or Reject (then undo the
// move). One proposal may be outstanding at a time. The session requires
// that the dense lowering seeded here is patched in place by the moves
// (mapspace.Move.Apply does this whenever the mapping's memoized lowering
// matches the space's evaluator context); re-lowering the mapping from
// scratch mid-session invalidates the seeded pointer and the session must
// be re-seeded.
//
// A DeltaEval belongs to one goroutine; the Plan stays shared.
type DeltaEval struct {
	p  *Plan
	s  *Scratch
	dm *mapping.Dense

	seeded bool

	// Committed contributions: together with the scratch's trips/vols/kept
	// tables they always describe exactly what a full evaluation of the
	// current dense mapping would compute (the seed establishes this, and
	// Commit/Reject preserve it).
	links     [][]linkC // per tensor, its kept-chain link records
	dp        []dpC     // per tensor, its datapath record
	dimCycles []float64 // per dim, its compute-latency factor

	// Proposal buffers, populated by EvaluateDelta and promoted by Commit.
	pLinks      [][]linkC
	pDp         []dpC
	pDimCycle   float64
	linkChanged []bool
	dpChanged   []bool
	cycleDim    int // dim whose latency factor is proposed, -1 if none

	// Undo records for the in-place scratch updates of the open proposal.
	oldTrips    []int   // saved trips column (chain moves)
	oldExts     []int   // saved per-level extents of the moved dim (chain moves)
	tripsDim    int     // row owner, -1 if none
	oldVols     []int64 // saved volumes, parallel to volsTouched
	volsTouched []int32 // level*nTensors+tensor indices
	oldKept     uint8   // saved kept mask (keep moves)
	keptLevel   int     // mask owner, -1 if none

	pending      bool
	pendingValid bool
	delta        mapping.Delta
}

// NewDeltaEval allocates an incremental-evaluation session for the plan,
// including its private scratch. All buffers reach steady state here; the
// session itself never allocates.
func (p *Plan) NewDeltaEval() *DeltaEval {
	de := &DeltaEval{
		p:           p,
		s:           p.NewScratch(),
		links:       make([][]linkC, p.nTensors),
		dp:          make([]dpC, p.nTensors),
		dimCycles:   make([]float64, p.nDims),
		pLinks:      make([][]linkC, p.nTensors),
		pDp:         make([]dpC, p.nTensors),
		linkChanged: make([]bool, p.nTensors),
		dpChanged:   make([]bool, p.nTensors),
		oldTrips:    make([]int, p.nSlots),
		oldExts:     make([]int, p.nLevels),
		oldVols:     make([]int64, 0, p.nLevels*p.nTensors),
		volsTouched: make([]int32, 0, p.nLevels*p.nTensors),
		tripsDim:    -1,
		keptLevel:   -1,
		cycleDim:    -1,
	}
	for ti := 0; ti < p.nTensors; ti++ {
		de.links[ti] = make([]linkC, 0, p.nLevels)
		de.pLinks[ti] = make([]linkC, 0, p.nLevels)
	}
	return de
}

// Seed fully evaluates dm, recording every per-scope contribution, and
// makes dm the session's base mapping. Any open proposal is abandoned. The
// session is usable for EvaluateDelta only when the returned Cost is valid
// (an invalid mapping leaves the contribution record incomplete). The
// Cost's per-level slices alias the session scratch; retain with Clone.
func (de *DeltaEval) Seed(dm *mapping.Dense) Cost {
	de.clearPending()
	c := de.p.evalInto(dm, de.s, de)
	de.dm = dm
	de.seeded = c.Valid
	return c
}

// EvaluateDelta evaluates the mapping after the move described by dl has
// been applied to the seeded dense lowering, recomputing only the scopes
// the move touches. The result is bit-identical to a full EvaluateInto of
// the mutated mapping. The proposal stays open until Commit or Reject; the
// returned Cost's per-level slices alias the session scratch.
//
//ruby:hotpath
func (p *Plan) EvaluateDelta(de *DeltaEval, dl mapping.Delta) Cost {
	if de.p != p {
		panic("nest: DeltaEval used with a different Plan")
	}
	if !de.seeded {
		panic("nest: EvaluateDelta before a valid Seed")
	}
	if de.pending {
		panic("nest: EvaluateDelta with an open proposal (Commit or Reject first)")
	}
	de.pending = true
	de.delta = dl
	switch dl.Kind {
	case mapping.DeltaChain:
		return p.deltaChain(de, dl.Dim)
	case mapping.DeltaPerm:
		return p.deltaPerm(de, dl.Level)
	case mapping.DeltaKeep:
		return p.deltaKeep(de, dl.Level)
	}
	panic("nest: unknown delta kind")
}

// deltaChain handles a tiling-chain replacement for dimension d. The trips
// row and the volumes of tensors indexed by d are patched in place (with
// undo records); every stationarity walk multiplies dim-d trip counts, so
// all link and datapath records are rebuilt, but only dim d's latency
// recursion reruns.
//
//ruby:hotpath
func (p *Plan) deltaChain(de *DeltaEval, d int) Cost {
	s, dm := de.s, de.dm
	de.tripsDim = d
	cbase := d * p.stride
	for si := 0; si < p.nSlots; si++ {
		de.oldTrips[si] = s.trips[si*p.nDims+d]
		outer, inner := dm.Cum[cbase+si], dm.Cum[cbase+si+1]
		if inner >= outer {
			s.trips[si*p.nDims+d] = 1
		} else {
			s.trips[si*p.nDims+d] = (outer + inner - 1) / inner
		}
	}
	// Patch the extents column before any validity check can bail out, so
	// tripsDim >= 0 always implies oldExts holds this proposal's undo state.
	for li := 0; li < p.nLevels; li++ {
		ebase := li * p.nDims
		de.oldExts[li] = s.exts[ebase+d]
		s.exts[ebase+d] = dm.CumAt(d, p.firstSlot[li])
	}
	if c, bad := p.checkFanout(s); bad {
		return c
	}
	for li := 0; li < p.nLevels; li++ {
		exts := s.exts[li*p.nDims : (li+1)*p.nDims]
		base := li * p.nTensors
		for ti := range p.tensors {
			if !p.tensors[ti].rel[d] {
				continue
			}
			idx := base + ti
			de.oldVols = append(de.oldVols, s.vols[idx])
			de.volsTouched = append(de.volsTouched, int32(idx))
			s.vols[idx] = p.tileVolume(ti, exts)
		}
	}
	if c, bad := p.checkCapacity(s); bad {
		return c
	}
	for ti := range p.tensors {
		p.rebuildTensor(de, ti, true)
	}
	de.cycleDim = d
	de.pDimCycle = p.cyclesAlong(dm, d, s)
	de.pendingValid = true
	return p.recombine(de)
}

// deltaPerm handles a loop-order replacement at level li. A level's loop
// order is read only by stationarity walks that descend past it — links
// whose child level lies below li — so only those links are recomputed;
// each tensor's remaining links are copied from the committed values (the
// kept-level chain is untouched by a perm move, so the chains coincide).
// Trip counts, volumes and kept masks are untouched, so the proposal is
// always valid.
//
//ruby:hotpath
func (p *Plan) deltaPerm(de *DeltaEval, li int) Cost {
	s, dm := de.s, de.dm
	for ti := range p.tensors {
		committed := de.links[ti]
		changed := false
		for i := range committed {
			if int(committed[i].child) > li {
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		lcs := de.pLinks[ti][:0]
		for i := range committed {
			lc := committed[i]
			if int(lc.child) > li {
				lc = p.linkTraffic(dm, s, ti, float64(s.vols[int(lc.child)*p.nTensors+ti]), int(lc.parent), int(lc.child))
			}
			lcs = append(lcs, lc)
		}
		de.pLinks[ti] = lcs
		de.linkChanged[ti] = true
	}
	de.pendingValid = true
	return p.recombine(de)
}

// deltaKeep handles a bypass toggle of one role at level li. The level's
// kept mask is patched in place (with an undo record), capacity is
// rechecked, and the toggled role's tensors — whose kept-level chains
// changed — are rebuilt.
//
//ruby:hotpath
func (p *Plan) deltaKeep(de *DeltaEval, li int) Cost {
	s, dm := de.s, de.dm
	de.keptLevel = li
	de.oldKept = s.kept[li]
	mask := p.archKeeps[li]
	if li != 0 && li < len(dm.KeepMask) && dm.KeepMask[li] >= 0 {
		mask &= uint8(dm.KeepMask[li])
	}
	s.kept[li] = mask
	if c, bad := p.checkCapacity(s); bad {
		return c
	}
	for ti := range p.tensors {
		if p.tensors[ti].role == de.delta.Role {
			p.rebuildTensor(de, ti, true)
		}
	}
	de.pendingValid = true
	return p.recombine(de)
}

// rebuildTensor recomputes tensor ti's link records (and, when withDP, its
// datapath record) into the proposal buffers, reading the current scratch
// tables. Links whose inputs did not change recompute to identical bits, so
// rebuilding a whole tensor is always safe.
//
//ruby:hotpath
func (p *Plan) rebuildTensor(de *DeltaEval, ti int, withDP bool) {
	s, dm := de.s, de.dm
	bit := mapping.RoleBit(p.tensors[ti].role)
	kl := s.keptLevels[:0]
	kl = append(kl, 0)
	for li := 1; li < p.nLevels; li++ {
		if s.kept[li]&bit != 0 {
			kl = append(kl, li)
		}
	}
	lcs := de.pLinks[ti][:0]
	for i := 1; i < len(kl); i++ {
		parent, child := kl[i-1], kl[i]
		lcs = append(lcs, p.linkTraffic(dm, s, ti, float64(s.vols[child*p.nTensors+ti]), parent, child))
	}
	de.pLinks[ti] = lcs
	de.linkChanged[ti] = true
	if withDP {
		de.pDp[ti] = p.dpTraffic(dm, s, ti, kl[len(kl)-1])
		de.dpChanged[ti] = true
	}
}

// recombine replays the cached and proposed contributions in the exact
// accumulation order of the full kernel — per tensor, links outermost-first
// then the datapath term; then the per-dimension latency product — and
// finishes into a Cost.
//
//ruby:hotpath
func (p *Plan) recombine(de *DeltaEval) Cost {
	s := de.s
	for li := 0; li < p.nLevels; li++ {
		s.reads[li], s.writes[li], s.energy[li] = 0, 0, 0
	}
	var noc float64
	for ti := 0; ti < p.nTensors; ti++ {
		lcs := de.links[ti]
		if de.linkChanged[ti] {
			lcs = de.pLinks[ti]
		}
		for i := range lcs {
			applyLink(s, &noc, &lcs[i])
		}
		dp := de.dp[ti]
		if de.dpChanged[ti] {
			dp = de.pDp[ti]
		}
		applyDP(s, &noc, &dp)
	}
	cycles := 1.0
	for d := 0; d < p.nDims; d++ {
		v := de.dimCycles[d]
		if d == de.cycleDim {
			v = de.pDimCycle
		}
		cycles *= v
	}
	return p.finish(s, cycles, noc)
}

// Commit promotes the open proposal: the proposed contribution records
// become the committed ones and the in-place scratch updates become
// permanent. The caller keeps the corresponding Move applied. Committing an
// invalid proposal panics — the cached state would no longer describe any
// evaluable mapping.
//
//ruby:hotpath
func (de *DeltaEval) Commit() {
	if !de.pending {
		panic("nest: DeltaEval.Commit without an open proposal")
	}
	if !de.pendingValid {
		panic("nest: DeltaEval.Commit of an invalid proposal")
	}
	for ti := range de.linkChanged {
		if de.linkChanged[ti] {
			de.links[ti], de.pLinks[ti] = de.pLinks[ti], de.links[ti]
		}
		if de.dpChanged[ti] {
			de.dp[ti] = de.pDp[ti]
		}
	}
	if de.cycleDim >= 0 {
		de.dimCycles[de.cycleDim] = de.pDimCycle
	}
	de.clearPending()
}

// Reject discards the open proposal, restoring the scratch tables to the
// committed state. The caller must also undo the corresponding Move on the
// mapping (in either order; Reject does not read the dense lowering).
//
//ruby:hotpath
func (de *DeltaEval) Reject() {
	if !de.pending {
		panic("nest: DeltaEval.Reject without an open proposal")
	}
	s := de.s
	if de.tripsDim >= 0 {
		for si := 0; si < de.p.nSlots; si++ {
			s.trips[si*de.p.nDims+de.tripsDim] = de.oldTrips[si]
		}
		for li := 0; li < de.p.nLevels; li++ {
			s.exts[li*de.p.nDims+de.tripsDim] = de.oldExts[li]
		}
	}
	for i, idx := range de.volsTouched {
		s.vols[idx] = de.oldVols[i]
	}
	if de.keptLevel >= 0 {
		s.kept[de.keptLevel] = de.oldKept
	}
	de.clearPending()
}

// clearPending resets all proposal state.
func (de *DeltaEval) clearPending() {
	de.pending = false
	de.pendingValid = false
	de.tripsDim = -1
	de.keptLevel = -1
	de.cycleDim = -1
	de.oldVols = de.oldVols[:0]
	de.volsTouched = de.volsTouched[:0]
	for ti := range de.linkChanged {
		de.linkChanged[ti] = false
		de.dpChanged[ti] = false
	}
}
