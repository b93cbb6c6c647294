package mapping

import (
	"fmt"

	"ruby/internal/arch"
	"ruby/internal/factor"
	"ruby/internal/workload"
)

// Dense is the integer-indexed lowering of one mapping against a fixed
// (workload, architecture, slot list): cumulative tile sizes per dimension,
// per-level loop orders as dimension ids, and per-level bypass bitmasks.
// It is produced once per mapping (memoized on the Mapping) — by Dense from
// the string form, or by a generator that builds both at once and installs
// it through Relower (the mapspace sampler) — and read by the compiled
// evaluation plan (internal/nest.Plan) without any string lookups or map
// traffic. The engine's memo cache keys on it too.
//
// Dimensions are identified by their index in the workload's declaration
// order; roles by the bit 1<<role (see RoleBit).
type Dense struct {
	NDims  int
	NSlots int

	// Cum holds Chain.Cum for every dimension, flattened with stride
	// NSlots+1: Cum[d*(NSlots+1)+i] is the tile extent of dimension d at
	// slot i, and the final entry of each row is 1.
	Cum []int

	// Perm holds the per-level temporal loop orders as dimension ids,
	// flattened with stride NDims (levels indexed as in the architecture).
	Perm []int16

	// KeepMask mirrors Mapping.Keep: one entry per override level (its
	// length is len(Mapping.Keep), possibly zero). The sentinel -1 means
	// "no override at this level"; otherwise bit RoleBit(r) is set iff the
	// override keeps role r.
	KeepMask []int8
}

// RoleBit returns the bit identifying role r in dense keep masks.
func RoleBit(r workload.Role) uint8 { return 1 << uint8(r) }

// CumAt returns the tile extent of dimension d at slot si.
//
//ruby:hotpath
func (dn *Dense) CumAt(d, si int) int { return dn.Cum[d*(dn.NSlots+1)+si] }

// TripsAt returns the loop trip count of dimension d at slot si, matching
// Chain.Trips bit for bit.
//
//ruby:hotpath
func (dn *Dense) TripsAt(d, si int) int {
	base := d * (dn.NSlots + 1)
	outer, inner := dn.Cum[base+si], dn.Cum[base+si+1]
	if inner >= outer {
		return 1
	}
	return (outer + inner - 1) / inner
}

// DenseError reports why a mapping could not be lowered. Stage is "chains"
// or "perms", matching the prefixes the legacy nest.Evaluator puts on its
// invalid-cost reasons, and Err carries the exact legacy message.
type DenseError struct {
	Stage string
	Err   error
}

func (e *DenseError) Error() string { return e.Stage + ": " + e.Err.Error() }
func (e *DenseError) Unwrap() error { return e.Err }

// denseMemo records a lowered form together with the identity of the
// (workload, arch, slots) triple it was computed against, so a stale dense
// form is never served to a different evaluator.
type denseMemo struct {
	w      *workload.Workload
	a      *arch.Arch
	nslots int
	d      *Dense
}

// Dense returns the mapping's lowered form for the given evaluator context,
// computing and memoizing it on first use. A mapping that has been lowered
// must not be mutated in place except through Invalidate or Relower (which
// in-place generators call) or the Set* patch methods below (which
// mapspace.Move uses).
//
//ruby:hotpath
func (m *Mapping) Dense(w *workload.Workload, a *arch.Arch, slots []Slot) (*Dense, error) {
	if dm := m.dense.Load(); dm != nil && dm.w == w && dm.a == a && dm.nslots == len(slots) {
		return dm.d, nil
	}
	spare := m.spare
	m.spare = nil
	d, err := m.densify(w, a, slots, spare)
	if err != nil {
		m.spare = spare // keep the storage for a future successful lowering
		return nil, err
	}
	m.install(w, a, slots, d)
	return d, nil
}

// Relower drops m's lowering and installs, as its lowering for the given
// evaluator context, storage the caller then fills in place — for a
// generator that rewrites the mapping and builds its lowering in the same
// pass (the mapspace sampler), so no draw runs Dense's validation and
// lowering from strings. The previous lowering's storage is recycled as in
// Dense. The returned form has the right shape, an empty KeepMask and
// stale Cum and Perm rows: before anything reads the mapping the caller
// must write every dimension's Cum row (SetChainRow), every level's Perm
// row of dimension ids and any bypass overrides (SetKeepMask), so that the
// result equals what Dense would build from the rewritten mapping. The
// single-owner contract of Invalidate applies.
//
//ruby:hotpath
func (m *Mapping) Relower(w *workload.Workload, a *arch.Arch, slots []Slot) *Dense {
	m.Invalidate()
	d := denseStorage(m.spare, len(w.Dims), len(slots), len(a.Levels))
	m.spare = nil
	m.install(w, a, slots, d)
	return d
}

// install memoizes d as m's lowering for the evaluator context, recycling
// the spare memo record.
//
//ruby:hotpath
func (m *Mapping) install(w *workload.Workload, a *arch.Arch, slots []Slot, d *Dense) {
	memo := m.spareMemo
	if memo == nil {
		memo = &denseMemo{}
	}
	m.spareMemo = nil
	memo.w, memo.a, memo.nslots, memo.d = w, a, len(slots), d
	m.dense.Store(memo)
}

// denseStorage returns recycle when it has the (dims, slots, levels) shape
// and fresh storage otherwise, with an empty KeepMask either way.
//
//ruby:hotpath
func denseStorage(recycle *Dense, nd, ns, nl int) *Dense {
	d := recycle
	if d == nil || d.NDims != nd || d.NSlots != ns || len(d.Perm) != nl*nd {
		d = &Dense{
			NDims:  nd,
			NSlots: ns,
			Cum:    make([]int, nd*(ns+1)),
			Perm:   make([]int16, nl*nd),
		}
	}
	d.KeepMask = d.KeepMask[:0]
	return d
}

// UpdatableDense returns the memoized lowered form when it was computed
// against exactly this evaluator context, and nil otherwise. Unlike Dense it
// never lowers: it is the hook Move.Apply/Undo use to patch the dense form
// in place (via SetChainRow/SetPermRowIDs/SetKeepMask) instead of invalidating
// it wholesale. The single-owner mutation contract of Invalidate applies.
//
//ruby:hotpath
func (m *Mapping) UpdatableDense(w *workload.Workload, a *arch.Arch, slots []Slot) *Dense {
	if dm := m.dense.Load(); dm != nil && dm.w == w && dm.a == a && dm.nslots == len(slots) {
		return dm.d
	}
	return nil
}

// Invalidate clears the memoized dense form after an in-place mutation.
// The dense storage (and its memo record) is recycled into the next
// lowering so that sampler loops reusing one Mapping stay allocation-free
// at steady state. Invalidate-and-reuse is single-owner by
// design: it must not race with concurrent readers of the same Mapping
// (every searcher that shares mappings across goroutines clones them first).
func (m *Mapping) Invalidate() {
	if dm := m.dense.Load(); dm != nil {
		m.spare = dm.d
		m.spareMemo = dm
	}
	m.dense.Store(nil)
}

// SetChainRow recomputes dimension di's cumulative-tile row in place for the
// new outermost-first factor chain fs, exactly as NewChain computes Cum (it
// is how densify lowers each chain). The caller guarantees fs is a
// structurally valid chain over bound (sampled chains and Move proposals are
// valid by construction).
//
//ruby:hotpath
func (dn *Dense) SetChainRow(di, bound int, fs []int) {
	stride := dn.NSlots + 1
	row := dn.Cum[di*stride : di*stride+stride]
	row[dn.NSlots] = 1
	prod := 1
	for i := dn.NSlots - 1; i >= 0; i-- {
		if prod < bound {
			prod *= fs[i]
		}
		if prod > bound {
			prod = bound
		}
		row[i] = prod
	}
}

// SetPermRowIDs relowers level li's temporal loop order in place from
// workload dimension ids (declaration order), exactly as densify lowers the
// equivalent name permutation. Movers keep id arrays in lockstep with their
// name permutations so the hot patch path never compares strings.
//
//ruby:hotpath
func (dn *Dense) SetPermRowIDs(li int, ids []int16) {
	copy(dn.Perm[li*dn.NDims:], ids)
}

// SetKeepMask writes the bypass-override mask of level li, first growing the
// override array to n entries (filled with the -1 "no override" sentinel) so
// its length tracks len(Mapping.Keep) exactly as densify produces it.
//
//ruby:hotpath
func (dn *Dense) SetKeepMask(li, n int, mask int8) {
	if cap(dn.KeepMask) < n {
		grown := make([]int8, n)
		copy(grown, dn.KeepMask)
		for i := len(dn.KeepMask); i < n; i++ {
			grown[i] = -1
		}
		dn.KeepMask = grown
	} else if len(dn.KeepMask) < n {
		old := len(dn.KeepMask)
		dn.KeepMask = dn.KeepMask[:n]
		for i := old; i < n; i++ {
			dn.KeepMask[i] = -1
		}
	}
	dn.KeepMask[li] = mask
}

// TruncKeepMask shrinks the override array back to n entries — the exact
// reversal of a SetKeepMask growth, used by Move.Undo when the move created
// the override storage.
func (dn *Dense) TruncKeepMask(n int) {
	if n < len(dn.KeepMask) {
		dn.KeepMask = dn.KeepMask[:n]
	}
}

// densify lowers the mapping, validating exactly as the legacy evaluation
// path does (Chains, then ValidatePerms) with identical error messages and
// detection order. The recycle argument, when shape-compatible, provides
// the backing storage.
//
//ruby:hotpath
func (m *Mapping) densify(w *workload.Workload, a *arch.Arch, slots []Slot, recycle *Dense) (*Dense, error) {
	nd, ns, nl := len(w.Dims), len(slots), len(a.Levels)
	d := denseStorage(recycle, nd, ns, nl)

	chainsErr := func(err error) (*Dense, error) {
		return nil, &DenseError{Stage: "chains", Err: err} //ruby:allow hotpath -- invalid-mapping exit; the steady state returns the memoized form
	}
	for di := range w.Dims {
		dim := &w.Dims[di]
		fs, ok := m.Factors[dim.Name]
		if !ok {
			return chainsErr(fmt.Errorf("mapping: no factors for dim %q", dim.Name))
		}
		if len(fs) != ns {
			return chainsErr(fmt.Errorf("mapping: dim %q has %d factors for %d slots", dim.Name, len(fs), ns))
		}
		// Structural validity under ceiling semantics, replicating
		// factor.ValidateChain over all-imperfect slots (innermost-first
		// slot indices in the messages, as the legacy path reports them).
		r := dim.Bound
		for i := 0; i < ns; i++ {
			f := fs[ns-1-i]
			var ferr error
			switch {
			case f < 1:
				ferr = fmt.Errorf("factor: slot %d factor %d < 1", i, f)
			case r == 1 && f != 1:
				ferr = fmt.Errorf("factor: slot %d factor %d after residual reached 1", i, f)
			case r > 1 && f > r:
				ferr = fmt.Errorf("factor: slot %d factor %d exceeds residual %d", i, f, r)
			}
			if ferr != nil {
				return chainsErr(fmt.Errorf("mapping: dim %q: %w", dim.Name, ferr))
			}
			if r > 1 {
				r = factor.CeilDiv(r, f)
			}
		}
		if r != 1 {
			return chainsErr(fmt.Errorf("mapping: dim %q: %w", dim.Name,
				fmt.Errorf("factor: chain leaves residual %d over dimension %d", r, dim.Bound)))
		}
		d.SetChainRow(di, dim.Bound, fs)
	}

	permsErr := func(err error) (*Dense, error) {
		return nil, &DenseError{Stage: "perms", Err: err} //ruby:allow hotpath -- invalid-mapping exit; the steady state returns the memoized form
	}
	if len(m.Perms) != nl {
		return permsErr(fmt.Errorf("mapping: %d perms for %d levels", len(m.Perms), nl))
	}
	for li, perm := range m.Perms {
		if len(perm) != nd {
			return permsErr(fmt.Errorf("mapping: level %d perm has %d dims, want %d", li, len(perm), nd))
		}
		base := li * nd
		var seen uint64
		for k, name := range perm {
			id := w.DimID(name)
			d.Perm[base+k] = id
			if id >= 0 && id < 64 {
				seen |= 1 << uint(id)
			}
		}
		// Completeness check: one bitmask compare on the common path; the
		// quadratic rescan runs only to locate the first missing dimension
		// for the exact legacy error message (or when there are more
		// dimensions than mask bits).
		if nd < 64 && seen == (uint64(1)<<uint(nd))-1 || nd == 64 && seen == ^uint64(0) {
			continue
		}
		for dj := range w.Dims {
			found := false
			for k := 0; k < nd; k++ {
				if d.Perm[base+k] == int16(dj) {
					found = true
					break
				}
			}
			if !found {
				return permsErr(fmt.Errorf("mapping: level %d perm missing dim %q", li, w.Dims[dj].Name))
			}
		}
	}

	if m.Keep != nil {
		if cap(d.KeepMask) < len(m.Keep) {
			d.KeepMask = make([]int8, len(m.Keep))
		} else {
			d.KeepMask = d.KeepMask[:len(m.Keep)]
		}
		for li, k := range m.Keep {
			if k == nil {
				d.KeepMask[li] = -1
				continue
			}
			var mask int8
			for _, r := range workload.Roles {
				if k[r] {
					mask |= int8(RoleBit(r))
				}
			}
			d.KeepMask[li] = mask
		}
	}
	return d, nil
}
