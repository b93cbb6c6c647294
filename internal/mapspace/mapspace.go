// Package mapspace implements mapspace generation — the paper's central
// subject. A mapspace is the set of candidate mappings of one workload onto
// one architecture. Four formulations are provided:
//
//   - PFM: Timeloop's perfect index factorization (eq. 1) — every tiling
//     factor divides the residual dimension.
//   - Ruby: imperfect factorization everywhere (eq. 5) — any factor up to
//     the residual, with the final loop iteration handling a remainder tile.
//   - RubyS: imperfect factorization only at spatial (parFor) slots, the
//     paper's recommended trade-off between mapping quality and expansion.
//   - RubyT: imperfect factorization only at temporal slots.
//
// A Space supports random sampling (for Timeloop-style random search),
// exhaustive enumeration (for the toy studies), and exact counting of the
// per-dimension tiling choices (Table I).
package mapspace

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ruby/internal/arch"
	"ruby/internal/factor"
	"ruby/internal/mapping"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// Kind selects the factorization discipline.
type Kind uint8

const (
	// PFM is the perfect-factorization baseline mapspace.
	PFM Kind = iota
	// Ruby allows remainders at every slot.
	Ruby
	// RubyS allows remainders only at spatial slots.
	RubyS
	// RubyT allows remainders only at temporal slots.
	RubyT
)

var kindNames = map[Kind]string{PFM: "PFM", Ruby: "Ruby", RubyS: "Ruby-S", RubyT: "Ruby-T"}

// String returns the paper's name for the kind ("PFM", "Ruby", "Ruby-S",
// "Ruby-T").
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds lists all mapspace kinds in presentation order.
var Kinds = []Kind{PFM, Ruby, RubyS, RubyT}

// ParseKind resolves a mapspace name, ignoring case and surrounding space:
// the paper's names ("pfm", "ruby", "ruby-s", "ruby-t"), "perfect" for PFM,
// the unhyphenated and one-letter forms ("rubys", "s", "rubyt", "t"), and ""
// for the default, Ruby-S. Every CLI flag and /v1 request field naming a
// mapspace goes through it.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "ruby-s", "rubys", "s":
		return RubyS, nil
	case "pfm", "perfect":
		return PFM, nil
	case "ruby":
		return Ruby, nil
	case "ruby-t", "rubyt", "t":
		return RubyT, nil
	}
	return 0, fmt.Errorf("unknown mapspace %q (want pfm|ruby|ruby-s|ruby-t)", name)
}

// imperfectAt reports whether kind k relaxes divisibility at spatial slots.
func (k Kind) imperfectSpatial() bool { return k == Ruby || k == RubyS }

// imperfectTemporal reports whether kind k relaxes divisibility at temporal
// slots.
func (k Kind) imperfectTemporal() bool { return k == Ruby || k == RubyT }

// Constraints restricts a mapspace the way Timeloop constraint files do.
type Constraints struct {
	// SpatialX and SpatialY list the dimensions allowed to take factors > 1
	// on the corresponding array axis. nil allows every dimension.
	SpatialX []string
	SpatialY []string

	// FixedPerms locks every level's temporal loop order to the workload's
	// declaration order instead of sampling permutations. Used by the toy
	// studies where loop order is immaterial.
	FixedPerms bool

	// MaxTemporalFactor caps any single temporal factor (0 = uncapped).
	// Large caps keep random sampling inside plausible regions for huge
	// dimensions; the paper's studies do not need it.
	MaxTemporalFactor int

	// RequireSpatialX and RequireSpatialY force the listed dimensions to
	// take a spatial factor > 1 on the corresponding axis whenever the
	// dimension's residual and the axis budget allow it — the moral
	// equivalent of Timeloop constraint files pinning a dimension to an
	// array axis (e.g. true row-stationary keeps filter rows on the PE
	// rows). Enforced by the sampler; enumeration ignores it.
	RequireSpatialX []string
	RequireSpatialY []string

	// ExploreBypass lets the sampler also search storage-bypass choices
	// (ZigZag-style): each sampled mapping may skip storing a tensor at an
	// intermediate level the architecture would otherwise allow. The paper
	// fixes bypass per architecture (weights skip the Eyeriss GLB); this
	// option explores it.
	ExploreBypass bool

	// FuseTile constrains the listed dimensions for fused multi-layer
	// mapping: FuseTile[d] is the consumer's input-tile advance along d, and
	// every mapping in the space gives d a tile extent at FuseLevel that
	// divides it (a divisor-compatible refinement of the consumer's tile
	// chain), with the sub-FuseLevel chain factoring that extent perfectly so
	// fused tile boundaries stay aligned. Outside FuseLevel the dimension
	// tiles by the kind's usual rules over the ceil-divided residual — which
	// is where imperfect factorization pays off, since advances derived from
	// a consumer rarely divide the producer's bound. Dimensions not listed
	// are unconstrained. See FuseTileOf for deriving advances from an edge
	// binding.
	FuseTile map[string]int

	// FuseLevel is the architecture level whose tile the FuseTile constraint
	// pins — the shared on-chip level holding the fused intermediate. Values
	// < 1 default to level 1 (the first on-chip level). Ignored without
	// FuseTile.
	FuseLevel int
}

// required reports whether dim must take a spatial factor on the axis.
func (c Constraints) required(kind mapping.SlotKind, dim string) bool {
	var list []string
	switch kind {
	case mapping.SpatialX:
		list = c.RequireSpatialX
	case mapping.SpatialY:
		list = c.RequireSpatialY
	default:
		return false
	}
	for _, d := range list {
		if d == dim {
			return true
		}
	}
	return false
}

func (c Constraints) allowed(kind mapping.SlotKind, dim string) bool {
	var list []string
	switch kind {
	case mapping.SpatialX:
		list = c.SpatialX
	case mapping.SpatialY:
		list = c.SpatialY
	default:
		return true
	}
	if list == nil {
		return true
	}
	for _, d := range list {
		if d == dim {
			return true
		}
	}
	return false
}

// Space is a mapspace for one (workload, architecture, kind) triple. It is
// safe for concurrent use; samplers that draw in a tight loop should each
// hold a Sampler (NewSampler) for allocation-free in-place sampling.
type Space struct {
	Work *workload.Workload // the iteration space being tiled
	Arch *arch.Arch         // the hierarchy providing the slots
	Kind Kind               // the factorization discipline
	Cons Constraints        // dataflow-style restrictions

	slots    []mapping.Slot
	dimNames []string

	// fuseSlot is the slot index of FuseLevel's temporal slot when the space
	// is fused (Cons.FuseTile non-empty); -1 otherwise.
	fuseSlot int

	// rules is the compiled sampling table every draw path reads.
	rules sampleRules

	// divCache memoizes factor.Divisors per dimension residual: random
	// sampling hits the same few residuals millions of times.
	//ruby:guards divCache
	divMu    sync.RWMutex
	divCache map[int][]int
}

// New builds a Space.
func New(w *workload.Workload, a *arch.Arch, kind Kind, cons Constraints) *Space {
	s := &Space{
		Work: w, Arch: a, Kind: kind, Cons: cons,
		slots:    mapping.Slots(a),
		dimNames: w.DimNames(),
		divCache: make(map[int][]int),
		fuseSlot: -1,
	}
	if len(cons.FuseTile) > 0 {
		lvl := cons.FuseLevel
		if lvl < 1 {
			lvl = 1
		}
		if lvl >= len(a.Levels) {
			lvl = len(a.Levels) - 1
		}
		s.fuseSlot = mapping.FirstSlotOfLevel(s.slots, lvl)
	}
	s.rules = s.compileRules()
	return s
}

// divisors returns the cached sorted divisor list of n.
func (s *Space) divisors(n int) []int {
	s.divMu.RLock()
	divs, ok := s.divCache[n]
	s.divMu.RUnlock()
	if ok {
		return divs
	}
	divs = factor.Divisors(n)
	s.divMu.Lock()
	s.divCache[n] = divs
	s.divMu.Unlock()
	return divs
}

// divCache is a per-goroutine, lock-free view of the space's divisor cache:
// a flat residual-indexed table (residuals never exceed the largest dimension
// bound). Samplers and mutators each own one, so the steady-state sampling
// loop replaces two atomic lock operations per factor draw with one slice
// load. Entries alias the shared cache's slices, which are immutable.
type divCache struct {
	byN [][]int
}

// newDivCache sizes a divisor cache for the space's dimension bounds.
func (s *Space) newDivCache() *divCache {
	max := 0
	for _, d := range s.Work.Dims {
		if d.Bound > max {
			max = d.Bound
		}
	}
	return &divCache{byN: make([][]int, max+1)}
}

// divisorsFor is divisors through the caller's private cache (nil falls back
// to the shared locked cache).
//
//ruby:hotpath
func (s *Space) divisorsFor(n int, dc *divCache) []int {
	if dc != nil && n < len(dc.byN) {
		if d := dc.byN[n]; d != nil {
			return d
		}
		d := s.divisors(n)
		dc.byN[n] = d
		return d
	}
	return s.divisors(n)
}

// Slots exposes the slot list the space maps over.
func (s *Space) Slots() []mapping.Slot { return s.slots }

// chainSlots returns, for dimension dim, the factor.ChainSlot list in
// innermost-first order, encoding the kind's divisibility rules, fanout caps
// and spatial-dimension constraints.
func (s *Space) chainSlots(dim string) []factor.ChainSlot {
	out := make([]factor.ChainSlot, len(s.slots))
	for i, sl := range s.slots {
		cs := factor.ChainSlot{Kind: factor.Perfect}
		if sl.Spatial() {
			if s.Kind.imperfectSpatial() {
				cs.Kind = factor.Imperfect
			}
			cs.Max = sl.Fanout
			if !s.Cons.allowed(sl.Kind, dim) {
				cs.Max = 1
			}
		} else {
			if s.Kind.imperfectTemporal() {
				cs.Kind = factor.Imperfect
			}
			if s.Cons.MaxTemporalFactor > 0 && sl.Level != 0 {
				cs.Max = s.Cons.MaxTemporalFactor
			}
		}
		// Innermost-first ordering.
		out[len(s.slots)-1-i] = cs
	}
	return out
}

// ChainCount returns the number of tiling-factor chains available to the
// named dimension (permutations and bypass choices excluded). This is the
// quantity tabulated per formulation in Table I. Fused dimensions count
// only their constrained chains.
func (s *Space) ChainCount(dim string) uint64 {
	if a, ok := s.fusedAdvance(dim); ok {
		return s.fusedChainCount(dim, a)
	}
	return factor.CountChains(s.Work.Bound(dim), s.chainSlots(dim))
}

// enumerateChains yields dimension d's chains innermost-first, routing fused
// dimensions through their constrained enumeration.
func (s *Space) enumerateChains(d string, yield func(fs []int) bool) {
	if a, ok := s.fusedAdvance(d); ok {
		s.enumerateFusedChains(d, a, yield)
		return
	}
	factor.EnumerateChains(s.Work.Bound(d), s.chainSlots(d), yield)
}

// EnumerateChains yields every tiling chain available to the named dimension
// (outermost-first, the Mapping.Factors layout), in the deterministic order
// the Enumerator visits them. The slice passed to yield is reused across
// calls; retain with a copy. Stopping early returns false from yield.
func (s *Space) EnumerateChains(d string, yield func(fs []int) bool) {
	rev := make([]int, len(s.slots))
	s.enumerateChains(d, func(fs []int) bool {
		// fs is innermost-first; present outermost-first.
		for i, f := range fs {
			rev[len(fs)-1-i] = f
		}
		return yield(rev)
	})
}

// TotalChainCount returns the product of ChainCount over all dimensions —
// the size of the tiling mapspace.
func (s *Space) TotalChainCount() uint64 {
	total := uint64(1)
	for _, d := range s.Work.Dims {
		total *= s.ChainCount(d.Name)
	}
	return total
}

// Sample draws a random mapping. Factors are chosen slot-by-slot from each
// dimension's admissible set (divisors for perfect slots, any value up to the
// residual and fanout cap for imperfect slots); the outermost temporal slot
// absorbs whatever residual remains, exactly as in the chain formulation.
// Spatial factors additionally respect a shared per-slot fanout budget so
// that most samples pass the evaluator's fanout check. Permutations are
// uniform random unless FixedPerms is set. The mapping comes back lowered
// for (Work, Arch, Slots()), as from Sampler.SampleInto.
//
// Sampled mappings are structurally valid but may still violate buffer
// capacities; the caller's search loop filters those, mirroring Timeloop's
// generate-then-filter design.
func (s *Space) Sample(rng *rand.Rand) *mapping.Mapping {
	m := &mapping.Mapping{}
	s.sampleInto(rng, m, make([]int, len(s.slots)), make([]int, len(s.dimNames)), nil, nil, nil)
	return m
}

// Sampler owns the per-goroutine scratch for repeated in-place sampling:
// the fanout budget, the dimension visiting order and a divisor cache. One
// Sampler per goroutine; the underlying Space, whose compiled sampling rules
// every sampler reads, stays shared.
type Sampler struct {
	sp     *Space
	budget []int
	order  []int
	dc     *divCache
}

// NewSampler builds a Sampler over the space.
func (s *Space) NewSampler() *Sampler {
	return &Sampler{
		sp:     s,
		budget: make([]int, len(s.slots)),
		order:  make([]int, len(s.dimNames)),
		dc:     s.newDivCache(),
	}
}

// SampleInto redraws m in place, reusing its factor slices, perm storage and
// lowering, and writes the lowered form (cumulative tiles, loop-order ids,
// bypass masks) as it draws, so the evaluation pipeline downstream neither
// lowers the mapping from strings nor allocates at steady state. The random
// draw sequence is identical to Sample's: a seeded search produces the same
// mappings whichever entry point it uses. The caller must own m exclusively
// (clone before sharing across goroutines).
//
//ruby:hotpath
func (sm *Sampler) SampleInto(rng *rand.Rand, m *mapping.Mapping) {
	sm.sp.sampleInto(rng, m, sm.budget, sm.order, sm.dc, nil, nil)
}

// SampleScreened is SampleInto under a capacity screen (nest.Plan.ScreenStart)
// on plan p, the compiled plan of the space's workload and architecture,
// and scratch sc: after each dimension's chain it bounds the tile volumes
// from below, and it stops the draw, reporting false, once a bound exceeds
// a buffer's capacity. Under ExploreBypass only the innermost level is
// screened, the one the bypass draw cannot relieve. A stopped draw would
// have evaluated invalid; m is then left part-drawn, unfit for evaluation,
// until the next draw rewrites it. A draw that is not stopped is the one
// SampleInto makes, and it consumes the same RNG calls, so a search that
// seeds every draw afresh gets the same answers either way; a draw that is
// stopped consumes fewer.
//
//ruby:hotpath
func (sm *Sampler) SampleScreened(rng *rand.Rand, m *mapping.Mapping, p *nest.Plan, sc *nest.Scratch) bool {
	return sm.sp.sampleInto(rng, m, sm.budget, sm.order, sm.dc, p, sc)
}

// sampleInto is the sampling core behind Sample, Sampler.SampleInto and
// Sampler.SampleScreened, drawing m and its lowering together from the
// compiled rules. budget and order are caller-owned scratch (one entry per
// slot and per dimension). With a non-nil plan p it screens the draw on sc
// and reports false once the draw must overflow a buffer; without one it
// always draws to the end.
//
//ruby:hotpath
func (s *Space) sampleInto(rng *rand.Rand, m *mapping.Mapping, budget, order []int, dc *divCache, p *nest.Plan, sc *nest.Scratch) bool {
	dn := m.Relower(s.Work, s.Arch, s.slots)
	if m.Factors == nil {
		m.Factors = make(map[string][]int, len(s.Work.Dims))
	}
	m.Keep = nil

	// Shared fanout budgets per spatial slot.
	s.fullBudget(budget)

	// Visit dimensions in random order so no dimension monopolizes fanout —
	// except dimensions with a required spatial allocation, which go first
	// so the fanout budget cannot be starved before they draw.
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if s.rules.anyRequired {
		s.rules.requiredFirst(order, len(s.slots))
	}

	if p != nil {
		p.ScreenStart(sc, s.Cons.ExploreBypass)
	}
	for _, di := range order {
		name := s.dimNames[di]
		fs := m.Factors[name]
		if len(fs) != len(s.slots) {
			fs = make([]int, len(s.slots))
			m.Factors[name] = fs
		}
		s.sampleChainInto(rng, di, budget, fs, dc)
		dn.SetChainRow(di, s.Work.Dims[di].Bound, fs)
		if p != nil && p.ScreenChain(dn, di, sc) {
			return false
		}
	}

	nd := len(s.dimNames)
	if len(m.Perms) != len(s.Arch.Levels) {
		m.Perms = make([][]string, len(s.Arch.Levels))
	}
	for li := range m.Perms {
		p := m.Perms[li]
		if len(p) != nd {
			p = append([]string(nil), s.dimNames...) //ruby:allow hotpath -- first-sample initialization; steady state copies in place
			m.Perms[li] = p
		} else {
			copy(p, s.dimNames)
		}
		ids := dn.Perm[li*nd : li*nd+nd]
		for k := range ids {
			ids[k] = int16(k) // dimNames is workload declaration order
		}
		if !s.Cons.FixedPerms {
			rng.Shuffle(nd, func(i, j int) {
				p[i], p[j] = p[j], p[i]
				ids[i], ids[j] = ids[j], ids[i]
			})
		}
	}
	if s.Cons.ExploreBypass {
		s.sampleBypass(rng, m, dn)
	}
	return true
}

// sampleBypass randomly drops tensors from intermediate storage levels
// (never DRAM, never the innermost level — dropping the last on-chip home
// of a tensor is almost never useful and would dominate the samples),
// writing each override into m.Keep and its mask into the lowering dn.
func (s *Space) sampleBypass(rng *rand.Rand, m *mapping.Mapping, dn *mapping.Dense) {
	n := len(s.Arch.Levels)
	if n <= 2 {
		return
	}
	for li := 1; li < n-1; li++ {
		l := &s.Arch.Levels[li]
		var keep map[workload.Role]bool
		var mask int8
		for _, r := range workload.Roles {
			if !l.KeepsRole(r, false) {
				continue
			}
			if keep == nil {
				keep = map[workload.Role]bool{}
				for _, rr := range workload.Roles {
					if l.KeepsRole(rr, false) {
						keep[rr] = true
						mask |= int8(mapping.RoleBit(rr))
					}
				}
			}
			if rng.Intn(4) == 0 {
				keep[r] = false
				mask &^= int8(mapping.RoleBit(r))
			}
		}
		if keep == nil {
			continue
		}
		if m.Keep == nil {
			m.Keep = make([]map[workload.Role]bool, n)
		}
		m.Keep[li] = keep
		dn.SetKeepMask(li, n, mask)
	}
}

// sampleChainInto draws dimension di's outermost-first factor chain into fs
// (len must equal the slot count; every entry is overwritten), consuming
// from the shared spatial budget slice.
//
//ruby:hotpath
func (s *Space) sampleChainInto(rng *rand.Rand, di int, budget, fs []int, dc *divCache) {
	if a := s.rules.fusedAdvance(di); a > 0 {
		s.sampleFusedChainInto(rng, di, a, budget, fs, dc)
		return
	}
	rules := s.rules.row(di, len(s.slots))
	r := s.Work.Dims[di].Bound
	// Innermost-first; slot 0 of s.slots is outermost and absorbs the
	// residual.
	for i := len(s.slots) - 1; i >= 1; i-- {
		fl := rules[i]
		f := s.drawFactor(rng, fl, r, budget[i], dc)
		fs[i] = f
		if fl&ruleSpatial != 0 && f > 1 {
			budget[i] /= f
		}
		if r > 1 {
			if fl&ruleImperfect == 0 {
				r /= f
			} else {
				r = factor.CeilDiv(r, f)
			}
		}
	}
	fs[0] = r
}

// SampleChain draws a fresh factor chain for one dimension against a full
// fanout budget. Used by local-search mutation operators; the joint fanout
// across dimensions is re-checked by the evaluator.
func (s *Space) SampleChain(rng *rand.Rand, d string) []int {
	budget := make([]int, len(s.slots))
	s.fullBudget(budget)
	fs := make([]int, len(s.slots))
	s.sampleChainInto(rng, int(s.Work.DimID(d)), budget, fs, nil)
	return fs
}

// fullBudget resets budget to every spatial slot's full fanout (0 at
// temporal slots).
//
//ruby:hotpath
func (s *Space) fullBudget(budget []int) {
	for i, sl := range s.slots {
		if sl.Spatial() {
			budget[i] = sl.Fanout
		} else {
			budget[i] = 0
		}
	}
}

// SamplePerm draws a random loop order (or the canonical one under
// FixedPerms).
func (s *Space) SamplePerm(rng *rand.Rand) []string {
	p := append([]string(nil), s.Work.DimNames()...)
	if !s.Cons.FixedPerms {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return p
}

// drawFactor draws one slot factor for residual r under the slot's compiled
// rule flags, against the slot's remaining fanout budget.
//
//ruby:hotpath
func (s *Space) drawFactor(rng *rand.Rand, fl uint8, r, budget int, dc *divCache) int {
	if r == 1 {
		return 1
	}
	max := r
	if fl&ruleReserve != 0 {
		max = r - 1 // any f < r leaves residual ceil(r/f) >= 2
	}
	if fl&ruleSpatial != 0 {
		if fl&ruleAllowed == 0 {
			return 1
		}
		if budget < max {
			max = budget
		}
	} else if mt := s.Cons.MaxTemporalFactor; mt > 0 && mt < max {
		max = mt
	}
	if max < 1 {
		max = 1
	}
	imperfect := fl&ruleImperfect != 0
	if fl&ruleRequired != 0 && max >= 2 {
		// Forced spatial allocation: draw from [2, max] (smallest divisor
		// >= 2 for perfect slots).
		if imperfect {
			return 2 + rng.Intn(max-1)
		}
		if f := s.divisorGE2LE(rng, r, max, dc); f > 1 {
			return f
		}
		return 1
	}
	if imperfect {
		// Mixture proposal over the imperfect factor set [1, max]. Every
		// value has nonzero probability (the mapspace's membership is
		// unchanged), but density concentrates where high-quality mappings
		// live: exact divisors (the PFM subset, so the superset property
		// pays off in practice) and the resource-saturating factor max
		// (Ruby-S's raison d'etre: filling the fanout despite remainders).
		switch rng.Intn(10) {
		case 0, 1, 2:
			return max
		case 3, 4, 5:
			return s.cappedDivisor(rng, r, max, dc)
		default:
			return 1 + rng.Intn(max)
		}
	}
	return s.cappedDivisor(rng, r, max, dc)
}

// divisorGE2LE draws a random divisor of r in [2, max], or 1 when none
// exists. The divisor list is sorted with 1 first, so the candidates are the
// cached list's [1, hi) window; the rng draw count and selected values match
// the pre-cache implementation exactly.
func (s *Space) divisorGE2LE(rng *rand.Rand, r, max int, dc *divCache) int {
	divs := s.divisorsFor(r, dc)
	hi := len(divs)
	for hi > 0 && divs[hi-1] > max {
		hi--
	}
	if hi <= 1 {
		return 1
	}
	return divs[1+rng.Intn(hi-1)]
}

// cappedDivisor draws a uniform random divisor of r not exceeding max
// (falling back to 1, which always divides).
func (s *Space) cappedDivisor(rng *rand.Rand, r, max int, dc *divCache) int {
	divs := s.divisorsFor(r, dc)
	hi := len(divs)
	for hi > 0 && divs[hi-1] > max {
		hi--
	}
	if hi == 0 {
		return 1
	}
	return divs[rng.Intn(hi)]
}

// Enumerate yields every mapping in the tiling mapspace with canonical
// (declaration-order) permutations, stopping early if yield returns false.
// Feasible only for small workloads; the toy studies of Section III use it.
func (s *Space) Enumerate(yield func(*mapping.Mapping) bool) {
	en := s.NewEnumerator()
	for m := en.Next(); m != nil; m = en.Next() {
		if !yield(m) {
			return
		}
	}
}

// ChainRange is a half-open interval [Lo, Hi) of leading-dimension chain
// indices. Restricting an Enumerator to a ChainRange carves the enumeration
// into a contiguous shard: the ranges produced by Space.ShardLeading
// partition the full scan, so their union visits every mapping exactly once.
type ChainRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Empty reports whether the range selects no chains. The zero ChainRange is
// empty, which callers use as "no restriction".
func (r ChainRange) Empty() bool { return r.Hi <= r.Lo }

// LeadingDim returns the name of the enumeration's leading (most
// significant) dimension — the one a ChainRange restricts.
func (s *Space) LeadingDim() string { return s.Work.Dims[0].Name }

// ShardLeading splits the leading dimension's chain count into at most n
// balanced contiguous ranges (sizes differ by at most one, larger shards
// first). Fewer than n ranges are returned when the dimension has fewer
// chains than requested shards; n < 1 is treated as 1. The result is a
// partition of [0, ChainCount(LeadingDim())).
func (s *Space) ShardLeading(n int) []ChainRange {
	if n < 1 {
		n = 1
	}
	total := int(s.ChainCount(s.LeadingDim()))
	if total < 1 {
		total = 1
	}
	if n > total {
		n = total
	}
	out := make([]ChainRange, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		size := total / n
		if i < total%n {
			size++
		}
		out = append(out, ChainRange{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Enumerator steps through the tiling mapspace one mapping at a time, in the
// same deterministic order Enumerate visits. Unlike the callback form, its
// position (an odometer over per-dimension chain indices) can be read with
// Index and re-established with SetIndex — which is what lets the exhaustive
// searcher checkpoint mid-scan and resume without re-enumerating the prefix.
// RestrictLeading confines the scan to a leading-dimension chain range for
// sharded (distributed) enumeration.
type Enumerator struct {
	sp     *Space
	dims   []string
	perms  [][]string
	chains [][][]int // per dimension, outermost-first factor slices
	idx    []int
	done   bool

	// Leading-dimension restriction: the odometer's dim-0 digit runs over
	// [lo0, hi0) instead of [0, len(chains[0])).
	lo0, hi0 int
}

// NewEnumerator builds an enumerator positioned at the first mapping.
func (s *Space) NewEnumerator() *Enumerator {
	dims := s.Work.DimNames()
	chains := make([][][]int, len(dims))
	for di, d := range dims {
		s.enumerateChains(d, func(fs []int) bool {
			// fs is innermost-first; store outermost-first.
			rev := make([]int, len(fs))
			for i, f := range fs {
				rev[len(fs)-1-i] = f
			}
			chains[di] = append(chains[di], rev)
			return true
		})
	}
	e := &Enumerator{
		sp:     s,
		dims:   dims,
		perms:  mapping.DefaultPerms(s.Work, s.Arch),
		chains: chains,
		idx:    make([]int, len(dims)),
	}
	e.hi0 = len(chains[0])
	return e
}

// RestrictLeading confines the enumeration to leading-dimension chain
// indices [lo, hi) and repositions the enumerator at the range's first
// mapping. The restricted scans produced by Space.ShardLeading's ranges
// visit, between them, exactly the mappings of the unrestricted scan, each
// once, preserving order within each shard. Restrict before stepping: any
// progress (Next calls or SetIndex) is discarded.
func (e *Enumerator) RestrictLeading(lo, hi int) error {
	n := len(e.chains[0])
	if lo < 0 || hi > n || lo >= hi {
		return fmt.Errorf("mapspace: leading chain range [%d, %d) invalid for %d chains", lo, hi, n)
	}
	e.lo0, e.hi0 = lo, hi
	for i := range e.idx {
		e.idx[i] = 0
	}
	e.idx[0] = lo
	e.done = false
	return nil
}

// Next returns the next mapping of the enumeration, or nil once exhausted.
// Every returned mapping is freshly allocated (its factor slices alias the
// enumerator's precomputed chains, which are never mutated), so callers may
// retain and batch them. Scans that do not keep the mappings use NextInto.
func (e *Enumerator) Next() *mapping.Mapping {
	m := &mapping.Mapping{}
	if !e.NextInto(m) {
		return nil
	}
	return m
}

// NextInto rewrites m in place as the next mapping of the enumeration and
// advances, reporting false (m untouched) once exhausted. It clears and
// reuses m's factor map and recycles its lowering (Invalidate), so an
// exhaustive scan over a fixed set of mappings allocates nothing per
// mapping; m's factor slices and loop orders alias the enumerator's
// immutable tables, so a caller keeping the mapping past its next rewrite
// must Clone it. The caller must own m exclusively.
//
//ruby:hotpath
func (e *Enumerator) NextInto(m *mapping.Mapping) bool {
	if e.done {
		return false
	}
	m.Invalidate()
	if m.Factors == nil {
		m.Factors = make(map[string][]int, len(e.dims))
	}
	clear(m.Factors)
	for di, d := range e.dims {
		m.Factors[d] = e.chains[di][e.idx[di]]
	}
	m.Perms, m.Keep = e.perms, nil
	// Odometer increment. The leading digit runs over the (possibly
	// restricted) window [lo0, hi0).
	k := len(e.dims) - 1
	for k >= 0 {
		lim, reset := len(e.chains[k]), 0
		if k == 0 {
			lim, reset = e.hi0, e.lo0
		}
		e.idx[k]++
		if e.idx[k] < lim {
			break
		}
		e.idx[k] = reset
		k--
	}
	if k < 0 {
		e.done = true
	}
	return true
}

// Done reports whether the enumeration is exhausted.
func (e *Enumerator) Done() bool { return e.done }

// Index returns a copy of the enumerator's odometer position (the next
// mapping to be produced). Together with Done it fully describes the scan
// position for checkpointing.
func (e *Enumerator) Index() []int {
	return append([]int(nil), e.idx...)
}

// SetIndex repositions the enumerator at the given odometer state, as
// previously returned by Index. It returns an error when the index does not
// match the space's dimensions or chain counts (e.g. a checkpoint taken over
// a different workload).
func (e *Enumerator) SetIndex(idx []int, done bool) error {
	if len(idx) != len(e.chains) {
		return fmt.Errorf("mapspace: enumerator index has %d dims, space has %d", len(idx), len(e.chains))
	}
	for i, v := range idx {
		lo, hi := 0, len(e.chains[i])
		if i == 0 {
			lo, hi = e.lo0, e.hi0
		}
		if v < lo || v >= hi {
			return fmt.Errorf("mapspace: enumerator index[%d] = %d out of range [%d, %d)", i, v, lo, hi)
		}
	}
	copy(e.idx, idx)
	e.done = done
	return nil
}
