// Package mapping represents mappings: the allocation, in space and time, of
// a tensor operation onto an accelerator's processing elements and memory
// hierarchy. A mapping assigns every workload dimension a tiling-factor chain
// across *slots* derived from the architecture, a per-level temporal loop
// order, and optional storage-bypass overrides.
//
// Imperfect factorization (the Ruby formulation) is first-class: a factor
// need not divide the residual dimension left over by inner slots; the final
// iteration of the corresponding loop then processes a remainder tile
// (paper eq. 5, L_n = L_{n+1}·P_n + R_n − 1, equivalently ceiling division).
package mapping

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ruby/internal/arch"
	"ruby/internal/factor"
	"ruby/internal/workload"
)

// SlotKind distinguishes the three ways a slot subdivides work.
type SlotKind uint8

const (
	// Temporal slots are for-loops iterating a level's tile over time.
	Temporal SlotKind = iota
	// SpatialX slots are parFor fanouts along the array's X axis.
	SpatialX
	// SpatialY slots are parFor fanouts along the array's Y axis.
	SpatialY
)

func (k SlotKind) String() string {
	switch k {
	case Temporal:
		return "temporal"
	case SpatialX:
		return "spatialX"
	case SpatialY:
		return "spatialY"
	default:
		return fmt.Sprintf("SlotKind(%d)", uint8(k))
	}
}

// Slot is one position in the global tiling chain.
type Slot struct {
	Index     int      // position in the outermost-first slot list
	Level     int      // arch level owning the slot
	Kind      SlotKind // temporal or spatial axis
	Fanout    int      // capacity of a spatial slot; 0 for temporal
	Multicast bool     // whether the spatial slot's network multicasts
}

// Spatial reports whether the slot is a parFor.
func (s Slot) Spatial() bool { return s.Kind != Temporal }

// Slots derives the global slot list from an architecture, outermost-first.
// Each level contributes a temporal slot followed by its spatial fanout slots
// (Y then X — the spatial split is inside the level's temporal loops). Spatial
// slots with fanout 1 are omitted.
func Slots(a *arch.Arch) []Slot {
	var out []Slot
	for li := range a.Levels {
		l := &a.Levels[li]
		out = append(out, Slot{Index: len(out), Level: li, Kind: Temporal})
		if l.Fanout.FanoutY > 1 {
			out = append(out, Slot{
				Index: len(out), Level: li, Kind: SpatialY,
				Fanout: l.Fanout.FanoutY, Multicast: l.Fanout.Multicast,
			})
		}
		if l.Fanout.FanoutX > 1 {
			out = append(out, Slot{
				Index: len(out), Level: li, Kind: SpatialX,
				Fanout: l.Fanout.FanoutX, Multicast: l.Fanout.Multicast,
			})
		}
	}
	return out
}

// FirstSlotOfLevel returns the index of level li's temporal slot within the
// slot list produced by Slots. The data resident at level li is the tile
// covered by that slot and everything inner.
func FirstSlotOfLevel(slots []Slot, li int) int {
	for _, s := range slots {
		if s.Level == li && s.Kind == Temporal {
			return s.Index
		}
	}
	panic(fmt.Sprintf("mapping: no temporal slot for level %d", li))
}

// Mapping is one point of a mapspace.
type Mapping struct {
	// Factors maps each workload dimension to its per-slot tiling factors,
	// indexed by Slot.Index (outermost-first). Residual semantics apply
	// innermost-first: r := bound; for each slot from innermost to outermost
	// r = ceil(r / f). A complete chain ends with r == 1.
	Factors map[string][]int

	// Perms gives, per architecture level, the order of that level's
	// temporal loops, outermost-first. Each entry must be a permutation of
	// all workload dimension names. Loops with a single trip are ignored by
	// the cost model, so only the relative order of multi-trip dims matters.
	Perms [][]string

	// Keep optionally overrides which roles are stored per level (bypass).
	// nil, or a nil entry, means the architecture's default. Level 0 (DRAM)
	// always keeps everything.
	Keep []map[workload.Role]bool

	// dense memoizes the integer-indexed lowering read by the compiled
	// evaluation plan (and keying the engine's memo cache). Invariant: a
	// mapping that has been lowered must not be mutated in place — Clone
	// first (as every searcher does), call Invalidate after the mutation,
	// or patch the lowering alongside (Move.Apply). Clone does not copy
	// the memo. spare and spareMemo recycle the previous lowering's storage
	// (and its memo record) across Invalidate calls so sampler loops that
	// reuse one Mapping stay allocation-free.
	dense     atomic.Pointer[denseMemo]
	spare     *Dense
	spareMemo *denseMemo
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Factors: make(map[string][]int, len(m.Factors))}
	for d, fs := range m.Factors {
		c.Factors[d] = append([]int(nil), fs...)
	}
	c.Perms = make([][]string, len(m.Perms))
	for i, p := range m.Perms {
		c.Perms[i] = append([]string(nil), p...)
	}
	if m.Keep != nil {
		c.Keep = make([]map[workload.Role]bool, len(m.Keep))
		for i, k := range m.Keep {
			if k == nil {
				continue
			}
			c.Keep[i] = make(map[workload.Role]bool, len(k))
			for r, v := range k {
				c.Keep[i][r] = v
			}
		}
	}
	return c
}

// Chain precomputes per-dimension tiling geometry for one mapping.
type Chain struct {
	Bound   int
	Factors []int // outermost-first, one per slot
	// Cum[i] is the dimension extent covered by slots i..end, clipped to the
	// bound: the tile size "at" slot i. Cum[len(Factors)] == 1.
	Cum []int
}

// NewChain builds chain geometry from outermost-first factors.
func NewChain(bound int, factors []int) Chain {
	c := Chain{Bound: bound, Factors: factors}
	c.Cum = make([]int, len(factors)+1)
	c.Cum[len(factors)] = 1
	prod := 1
	for i := len(factors) - 1; i >= 0; i-- {
		if prod < bound { // avoid overflow once clipped
			prod *= factors[i]
		}
		if prod > bound {
			prod = bound
		}
		c.Cum[i] = prod
	}
	return c
}

// Trips returns the loop trip count at slot i: the number of inner subtiles
// (the last possibly partial) iterated to cover the slot's tile.
func (c Chain) Trips(i int) int {
	if c.Cum[i+1] >= c.Cum[i] {
		return 1
	}
	return factor.CeilDiv(c.Cum[i], c.Cum[i+1])
}

// Remainder returns the size of the final (partial) subtile at slot i; it
// equals Cum[i+1] exactly when the slot factors perfectly.
func (c Chain) Remainder(i int) int {
	r := c.Cum[i] % c.Cum[i+1]
	if r == 0 {
		return c.Cum[i+1]
	}
	return r
}

// Perfect reports whether slot i divides evenly.
func (c Chain) Perfect(i int) bool { return c.Cum[i]%c.Cum[i+1] == 0 }

// Chains builds chain geometry for every dimension of w. It returns an error
// if a dimension is missing, has the wrong arity, or does not form a complete
// covering chain.
func (m *Mapping) Chains(w *workload.Workload, slots []Slot) (map[string]Chain, error) {
	out := make(map[string]Chain, len(w.Dims))
	for _, d := range w.Dims {
		fs, ok := m.Factors[d.Name]
		if !ok {
			return nil, fmt.Errorf("mapping: no factors for dim %q", d.Name)
		}
		if len(fs) != len(slots) {
			return nil, fmt.Errorf("mapping: dim %q has %d factors for %d slots", d.Name, len(fs), len(slots))
		}
		// Structural validity: the chain must cover the bound under ceiling
		// semantics (any-kind slots). Mapspace-specific divisibility rules
		// are enforced by the generators, not here.
		rev := make([]int, len(fs))
		for i, f := range fs {
			rev[len(fs)-1-i] = f
		}
		imperfect := make([]factor.ChainSlot, len(fs))
		for i := range imperfect {
			imperfect[i].Kind = factor.Imperfect
		}
		if err := factor.ValidateChain(d.Bound, imperfect, rev); err != nil {
			return nil, fmt.Errorf("mapping: dim %q: %w", d.Name, err)
		}
		out[d.Name] = NewChain(d.Bound, fs)
	}
	return out, nil
}

// ValidatePerms checks that Perms has one complete permutation per level.
func (m *Mapping) ValidatePerms(w *workload.Workload, a *arch.Arch) error {
	if len(m.Perms) != len(a.Levels) {
		return fmt.Errorf("mapping: %d perms for %d levels", len(m.Perms), len(a.Levels))
	}
	want := w.DimNames()
	for li, p := range m.Perms {
		if len(p) != len(want) {
			return fmt.Errorf("mapping: level %d perm has %d dims, want %d", li, len(p), len(want))
		}
		seen := make(map[string]bool, len(p))
		for _, d := range p {
			seen[d] = true
		}
		for _, d := range want {
			if !seen[d] {
				return fmt.Errorf("mapping: level %d perm missing dim %q", li, d)
			}
		}
	}
	return nil
}

// KeptRoles resolves which roles are stored at level li, combining the
// architecture's policy with the mapping's bypass overrides.
func (m *Mapping) KeptRoles(a *arch.Arch, li int) map[workload.Role]bool {
	out := make(map[workload.Role]bool, 3)
	l := &a.Levels[li]
	for _, r := range workload.Roles {
		keeps := l.KeepsRole(r, li == 0)
		if li != 0 && m.Keep != nil && li < len(m.Keep) && m.Keep[li] != nil {
			keeps = keeps && m.Keep[li][r]
		}
		if keeps {
			out[r] = true
		}
	}
	return out
}

// Key returns a canonical string identifying the mapping (for dedup and
// deterministic test assertions). Dims are sorted; single-trip loops are
// dropped from permutations. It is computed afresh on every call: the
// engine's memo cache keys on the mapping's lowering instead (see
// engine.Config.CacheEntries).
func (m *Mapping) Key(w *workload.Workload, slots []Slot) string {
	dims := w.SortedDimNames()
	// Cumulative tile sizes (Chain.Cum) for every dim, packed into one flat
	// backing array with stride nf+1 to avoid a per-dim allocation.
	nf := 0
	for _, d := range dims {
		if n := len(m.Factors[d]); n > nf {
			nf = n
		}
	}
	cum := make([]int, len(dims)*(nf+1))
	buf := make([]byte, 0, 32*len(dims))
	for i, d := range dims {
		fs := m.Factors[d]
		buf = append(buf, d...)
		buf = append(buf, '=')
		for _, f := range fs {
			buf = strconv.AppendInt(buf, int64(f), 10)
			buf = append(buf, '.')
		}
		buf = append(buf, ';')
		row := cum[i*(nf+1):]
		row[len(fs)] = 1
		bound := w.Bound(d)
		prod := 1
		for j := len(fs) - 1; j >= 0; j-- {
			if prod < bound {
				prod *= fs[j]
			}
			if prod > bound {
				prod = bound
			}
			row[j] = prod
		}
	}
	for li, p := range m.Perms {
		ti := FirstSlotOfLevel(slots, li)
		buf = append(buf, 'p')
		buf = strconv.AppendInt(buf, int64(li), 10)
		buf = append(buf, '=')
		first := true
		for _, d := range p {
			active := false
			for j := range dims {
				if dims[j] == d {
					row := cum[j*(nf+1):]
					active = row[ti+1] < row[ti] // Trips(ti) > 1
					break
				}
			}
			if !active {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, d...)
		}
		buf = append(buf, ';')
	}
	if m.Keep != nil {
		for li, k := range m.Keep {
			if k == nil {
				continue
			}
			var rs []string
			for r, v := range k {
				if v {
					rs = append(rs, r.String())
				}
			}
			sort.Strings(rs)
			buf = append(buf, 'k')
			buf = strconv.AppendInt(buf, int64(li), 10)
			buf = append(buf, '=')
			buf = append(buf, strings.Join(rs, ",")...)
			buf = append(buf, ';')
		}
	}
	return string(buf)
}

// DefaultPerms returns a uniform permutation (declaration order) for every
// level.
func DefaultPerms(w *workload.Workload, a *arch.Arch) [][]string {
	p := make([][]string, len(a.Levels))
	for i := range p {
		p[i] = w.DimNames()
	}
	return p
}

// Uniform builds the trivial mapping placing the entire iteration space in
// the temporal slot of the given level (all other factors 1). It is the
// canonical "exists for every workload" starting point.
func Uniform(w *workload.Workload, a *arch.Arch, level int) *Mapping {
	slots := Slots(a)
	ti := FirstSlotOfLevel(slots, level)
	m := &Mapping{
		Factors: make(map[string][]int, len(w.Dims)),
		Perms:   DefaultPerms(w, a),
	}
	for _, d := range w.Dims {
		fs := make([]int, len(slots))
		for i := range fs {
			fs[i] = 1
		}
		fs[ti] = d.Bound
		m.Factors[d.Name] = fs
	}
	return m
}

// String renders the mapping as an annotated loop nest in the style of the
// paper's Fig. 3: per level, its temporal loops (in permutation order) and
// spatial parFors, with imperfect loops annotated by their remainder.
func (m *Mapping) Render(w *workload.Workload, a *arch.Arch) string {
	slots := Slots(a)
	chains, err := m.Chains(w, slots)
	if err != nil {
		return fmt.Sprintf("<invalid mapping: %v>", err)
	}
	var b strings.Builder
	indent := 0
	writeLoop := func(kw, d string, trips, sub, rem int) {
		b.WriteString(strings.Repeat("  ", indent))
		if rem == sub {
			fmt.Fprintf(&b, "%s %s in [0:%d) step %d\n", kw, strings.ToLower(d), trips, sub)
		} else {
			fmt.Fprintf(&b, "%s %s in [0:%d) step %d (last: %d)\n", kw, strings.ToLower(d), trips, sub, rem)
		}
		indent++
	}
	for _, s := range slots {
		if s.Kind == Temporal {
			b.WriteString(strings.Repeat("  ", indent))
			fmt.Fprintf(&b, "--- %s ---\n", a.Levels[s.Level].Name)
			for _, d := range m.Perms[s.Level] {
				c := chains[d]
				if tr := c.Trips(s.Index); tr > 1 {
					writeLoop("for", d, tr, c.Cum[s.Index+1], c.Remainder(s.Index))
				}
			}
		} else {
			for _, d := range w.DimNames() {
				c := chains[d]
				if tr := c.Trips(s.Index); tr > 1 {
					writeLoop("parFor", d, tr, c.Cum[s.Index+1], c.Remainder(s.Index))
				}
			}
		}
	}
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString("mac()\n")
	return b.String()
}
