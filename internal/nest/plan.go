package nest

import (
	"errors"
	"fmt"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Plan is the compiled evaluation program for one (workload, architecture)
// pair: every dimension, tensor and level is lowered to a small integer id
// at NewEvaluator time, so that evaluating a mapping touches only flat
// slices — no string-keyed maps, no per-call lookups into the energy
// tables, no allocation. One Plan is shared by any number of goroutines;
// each goroutine owns a private Scratch.
//
// The compiled path is bit-identical to Evaluator.EvaluateLegacy: every
// floating-point operation is performed in the same order on the same
// values, which TestPlanMatchesLegacy verifies exhaustively over random
// mappings on all bundled architectures.
type Plan struct {
	work  *workload.Workload
	arch  *arch.Arch
	slots []mapping.Slot

	nDims, nSlots, nLevels, nTensors int
	stride                           int // nSlots+1, the Dense.Cum row stride

	tensors   []planTensor
	firstSlot []int // per level, index of its temporal slot

	// Per-level architecture facts, hoisted out of the evaluation loop.
	archKeeps  []uint8    // bitmask of roles the arch stores (RoleBit)
	dedicated  []bool     // PerRole buffers present
	roleCap    [][3]int64 // dedicated capacity per role (when dedicated)
	sharedCap  []int64    // shared capacity (when not dedicated)
	accessPJ   []float64  // per-word access energy
	instancesF []float64  // float64(Instances(li))
	bandwidth  []float64  // words/cycle per instance (0 = unlimited)
	staticPJ   []float64  // leakage pJ per instance per cycle

	macs, lanes float64
	macEnergyPJ float64 // per-MAC energy

	// Interned invalid-verdict reasons, formatted once at compile time so
	// the checks below return them without fmt or boxing. Every value that
	// used to be interpolated per call (slot ids, level names, capacities)
	// is a static architecture fact; the offending tile volume was dropped
	// from the message to keep the string per-slot/per-level static.
	fanoutReason    []string    // per spatial slot
	dedicatedReason [][3]string // per level, per role (dedicated buffers)
	sharedReason    []string    // per level (shared buffers)

	// hop[parent][child] is the summed per-word wire energy of a
	// parent->child transfer (child may be nLevels: the datapath below the
	// innermost level). Precomputed with the exact legacy summation loop so
	// the values are bit-identical.
	hop [][]float64
}

// planTensor is one operand lowered to integer ids.
type planTensor struct {
	role   workload.Role
	rel    []bool       // per dim: does the dim index this tensor
	coords [][]planTerm // per coordinate, the halo-formula terms
}

// planTerm is one lowered coordinate term: stride * iter(dim).
type planTerm struct {
	dim    int
	stride int
}

// newPlan compiles the evaluation program. Inputs are already validated by
// NewEvaluator.
func newPlan(w *workload.Workload, a *arch.Arch, slots []mapping.Slot, firstSlot []int) *Plan {
	p := &Plan{
		work:      w,
		arch:      a,
		slots:     slots,
		nDims:     len(w.Dims),
		nSlots:    len(slots),
		nLevels:   len(a.Levels),
		nTensors:  len(w.Tensors),
		stride:    len(slots) + 1,
		firstSlot: firstSlot,
		macs:      float64(w.MACs()),
		lanes:     float64(a.TotalLanes()),
	}
	dimID := make(map[string]int, p.nDims)
	for i := range w.Dims {
		dimID[w.Dims[i].Name] = i
	}

	p.tensors = make([]planTensor, p.nTensors)
	for ti := range w.Tensors {
		t := &w.Tensors[ti]
		pt := planTensor{role: t.Role, rel: make([]bool, p.nDims)}
		for _, c := range t.Coords {
			terms := make([]planTerm, len(c.Terms))
			for k, tm := range c.Terms {
				terms[k] = planTerm{dim: dimID[tm.Dim], stride: tm.Stride}
				pt.rel[dimID[tm.Dim]] = true
			}
			pt.coords = append(pt.coords, terms)
		}
		p.tensors[ti] = pt
	}

	p.archKeeps = make([]uint8, p.nLevels)
	p.dedicated = make([]bool, p.nLevels)
	p.roleCap = make([][3]int64, p.nLevels)
	p.sharedCap = make([]int64, p.nLevels)
	p.accessPJ = make([]float64, p.nLevels)
	p.instancesF = make([]float64, p.nLevels)
	p.bandwidth = make([]float64, p.nLevels)
	p.staticPJ = make([]float64, p.nLevels)
	for li := range a.Levels {
		l := &a.Levels[li]
		for _, r := range workload.Roles {
			if l.KeepsRole(r, li == 0) {
				p.archKeeps[li] |= mapping.RoleBit(r)
			}
		}
		p.dedicated[li] = l.PerRole != nil
		for _, r := range workload.Roles {
			cap, ded := l.RoleCapacity(r)
			if ded {
				p.roleCap[li][r] = cap
			}
		}
		p.sharedCap[li] = l.Capacity
		p.accessPJ[li] = a.AccessEnergyPJ(li)
		p.instancesF[li] = float64(a.Instances(li))
		p.bandwidth[li] = l.BandwidthWords
		p.staticPJ[li] = l.StaticPJPerCycle
	}
	p.macEnergyPJ = a.Energy.MAC()

	p.fanoutReason = make([]string, p.nSlots)
	for si := range slots {
		if sl := &slots[si]; sl.Spatial() {
			p.fanoutReason[si] = fmt.Sprintf("fanout: slot %d (%s level %d) exceeds %d instances",
				sl.Index, sl.Kind, sl.Level, sl.Fanout)
		}
	}
	p.dedicatedReason = make([][3]string, p.nLevels)
	p.sharedReason = make([]string, p.nLevels)
	for li := range a.Levels {
		l := &a.Levels[li]
		if p.dedicated[li] {
			for _, r := range workload.Roles {
				if cap, ded := l.RoleCapacity(r); ded {
					p.dedicatedReason[li][r] = fmt.Sprintf("capacity: level %s %v tile exceeds dedicated %d words",
						l.Name, r, cap)
				}
			}
		} else if l.Capacity > 0 {
			p.sharedReason[li] = fmt.Sprintf("capacity: level %s exceeds shared capacity %d words",
				l.Name, l.Capacity)
		}
	}

	p.hop = make([][]float64, p.nLevels+1)
	for parent := 0; parent <= p.nLevels; parent++ {
		p.hop[parent] = make([]float64, p.nLevels+1)
		for child := parent; child <= p.nLevels; child++ {
			var total float64
			for li := parent; li < child; li++ {
				n := a.Levels[li].Fanout
				if n.HopEnergyPJ > 0 {
					total += n.HopEnergyPJ * n.MeanHops()
				}
			}
			p.hop[parent][child] = total
		}
	}
	return p
}

// Scratch holds the preallocated working memory for one evaluation worker.
// A Scratch belongs to exactly one goroutine at a time; the Plan itself is
// immutable and freely shared.
type Scratch struct {
	exts       []int     // [level*nDims+dim] tile extents at each level's first slot
	trips      []int     // [slot*nDims+dim] loop trip counts (TripsAt table, slot-major)
	vols       []int64   // [level*nTensors+tensor] tile volumes in words
	kept       []uint8   // per level, effective kept-role mask
	keptLevels []int     // reused kept-level chain buffer
	reads      []float64 // per level — the Into-result backing
	writes     []float64
	energy     []float64

	// Per-slot latency memo (chunk -> cycles), replacing the legacy per-call
	// map. The number of distinct chunks per slot is at most nSlots+1, so
	// the lists stay tiny and settle at a fixed capacity.
	memoChunk [][]int
	memoVal   [][]float64
}

// NewScratch allocates working memory sized for the plan.
func (p *Plan) NewScratch() *Scratch {
	s := &Scratch{
		exts:       make([]int, p.nLevels*p.nDims),
		trips:      make([]int, p.nDims*p.nSlots),
		vols:       make([]int64, p.nLevels*p.nTensors),
		kept:       make([]uint8, p.nLevels),
		keptLevels: make([]int, 0, p.nLevels),
		reads:      make([]float64, p.nLevels),
		writes:     make([]float64, p.nLevels),
		energy:     make([]float64, p.nLevels),
		memoChunk:  make([][]int, p.nSlots),
		memoVal:    make([][]float64, p.nSlots),
	}
	for si := 0; si < p.nSlots; si++ {
		s.memoChunk[si] = make([]int, 0, p.nSlots+1)
		s.memoVal[si] = make([]float64, 0, p.nSlots+1)
	}
	return s
}

// Clone returns a copy of c whose per-level slices are freshly allocated
// (one backing array), detaching it from any Scratch or cache it aliased.
func (c Cost) Clone() Cost {
	if c.LevelReads == nil {
		return c
	}
	return c.CloneInto(make([]float64, 3*len(c.LevelReads)))
}

// CloneInto is Clone into caller-owned storage b of at least
// 3*len(c.LevelReads) words, which the returned Cost's per-level slices then
// alias: a holder that keeps one buffer per result (a reusable batch, a
// double-buffered incumbent) detaches costs without allocating. A cost
// without per-level slices (an invalid verdict) is returned as is.
//
//ruby:hotpath
func (c Cost) CloneInto(b []float64) Cost {
	if c.LevelReads == nil {
		return c
	}
	n := len(c.LevelReads)
	copy(b[:n], c.LevelReads)
	copy(b[n:2*n], c.LevelWrites)
	copy(b[2*n:], c.LevelEnergyPJ)
	c.LevelReads, c.LevelWrites, c.LevelEnergyPJ = b[:n:n], b[n:2*n:2*n], b[2*n:3*n:3*n]
	return c
}

// EvaluateMapping lowers m (memoized on the mapping) and evaluates it,
// returning a Cost detached from the scratch. Valid results cost one small
// allocation (the per-level slices); this is what Evaluator.Evaluate uses.
//
//ruby:hotpath
func (p *Plan) EvaluateMapping(m *mapping.Mapping, s *Scratch) Cost {
	return p.EvaluateMappingInto(m, s).Clone()
}

// EvaluateMappingInto is EvaluateMapping without the detaching copy: the
// returned Cost's per-level slices alias s and are overwritten by the next
// evaluation on the same scratch. Retain with Cost.Clone.
//
//ruby:hotpath
func (p *Plan) EvaluateMappingInto(m *mapping.Mapping, s *Scratch) Cost {
	dm, err := m.Dense(p.work, p.arch, p.slots)
	if err != nil {
		return invalidDense(err)
	}
	return p.EvaluateInto(dm, s)
}

// invalidDense formats the verdict for a mapping that failed dense
// lowering. Lowering rejects abort the evaluation before the kernel runs
// and never recur for a memoized mapping, so the formatting allocation is
// off the steady-state path. The concrete error parameter keeps the
// hot-path call site free of interface boxing.
//
//ruby:coldpath
func invalidDense(err error) Cost {
	var de *mapping.DenseError
	if errors.As(err, &de) {
		return Cost{Reason: de.Stage + ": " + de.Err.Error()}
	}
	return Cost{Reason: err.Error()}
}

// Evaluate evaluates a lowered mapping, returning a Cost detached from the
// scratch (one small allocation for valid results).
//
//ruby:hotpath
func (p *Plan) Evaluate(dm *mapping.Dense, s *Scratch) Cost {
	return p.EvaluateInto(dm, s).Clone()
}

// EvaluateInto is the allocation-free kernel: it evaluates a lowered
// mapping entirely within s. The returned Cost's LevelReads, LevelWrites
// and LevelEnergyPJ slices alias s and are overwritten by the next call on
// the same scratch; retain with Cost.Clone. Invalid verdicts allocate only
// their Reason string.
//
//ruby:hotpath
func (p *Plan) EvaluateInto(dm *mapping.Dense, s *Scratch) Cost {
	return p.evalInto(dm, s, nil)
}

// evalInto is the full-evaluation core behind EvaluateInto and
// DeltaEval.Seed. When de is non-nil it additionally records the per-scope
// contributions (per-link traffic, per-tensor datapath terms, per-dimension
// latency factors) that the delta kernel later recombines. Recording never
// changes the arithmetic: every floating-point operation runs in the same
// order on the same values either way, which is what keeps the compiled
// path bit-identical to EvaluateLegacy and the delta path bit-identical to
// the full one.
//
//ruby:hotpath
func (p *Plan) evalInto(dm *mapping.Dense, s *Scratch, de *DeltaEval) Cost {
	if dm.NDims != p.nDims || dm.NSlots != p.nSlots {
		panic("nest: dense mapping shape does not match plan")
	}

	// Integer trip counts per (dim, slot): one ceiling division here replaces
	// the repeated TripsAt divisions in every stationarity walk below (and is
	// the table the delta kernel patches per move).
	// Slot-major layout: each slot's dim row is contiguous, so the
	// stationarity walks below read one cache line per slot.
	for d := 0; d < p.nDims; d++ {
		cbase := d * p.stride
		for si := 0; si < p.nSlots; si++ {
			outer, inner := dm.Cum[cbase+si], dm.Cum[cbase+si+1]
			if inner >= outer {
				s.trips[si*p.nDims+d] = 1
			} else {
				s.trips[si*p.nDims+d] = (outer + inner - 1) / inner
			}
		}
	}

	// Spatial fanout bounds.
	if c, bad := p.checkFanout(s); bad {
		return c
	}

	// Effective kept roles per level (arch policy, masked by overrides).
	for li := 0; li < p.nLevels; li++ {
		mask := p.archKeeps[li]
		if li != 0 && li < len(dm.KeepMask) && dm.KeepMask[li] >= 0 {
			mask &= uint8(dm.KeepMask[li])
		}
		s.kept[li] = mask
	}

	// Tile volumes per (level, tensor).
	for li := 0; li < p.nLevels; li++ {
		si := p.firstSlot[li]
		exts := s.exts[li*p.nDims : (li+1)*p.nDims]
		for d := range exts {
			exts[d] = dm.CumAt(d, si)
		}
		base := li * p.nTensors
		for ti := range p.tensors {
			s.vols[base+ti] = p.tileVolume(ti, exts)
		}
	}

	// Storage residency and capacity.
	if c, bad := p.checkCapacity(s); bad {
		return c
	}

	for li := 0; li < p.nLevels; li++ {
		s.reads[li], s.writes[li], s.energy[li] = 0, 0, 0
	}
	var noc float64

	// Inter-level traffic per tensor along its chain of kept levels.
	for ti := range p.tensors {
		t := &p.tensors[ti]
		bit := mapping.RoleBit(t.role)
		kl := s.keptLevels[:0]
		kl = append(kl, 0)
		for li := 1; li < p.nLevels; li++ {
			if s.kept[li]&bit != 0 {
				kl = append(kl, li)
			}
		}
		var lcs []linkC
		if de != nil {
			lcs = de.links[ti][:0]
		}
		for i := 1; i < len(kl); i++ {
			parent, child := kl[i-1], kl[i]
			lc := p.linkTraffic(dm, s, ti, float64(s.vols[child*p.nTensors+ti]), parent, child)
			applyLink(s, &noc, &lc)
			if de != nil {
				lcs = append(lcs, lc)
			}
		}
		if de != nil {
			de.links[ti] = lcs
		}
		// Datapath-side accesses at the innermost kept level (see the
		// legacy path for the multicast-sharing rationale).
		dp := p.dpTraffic(dm, s, ti, kl[len(kl)-1])
		applyDP(s, &noc, &dp)
		if de != nil {
			de.dp[ti] = dp
		}
	}

	// Latency: compute-bound cycles per dimension.
	cycles := 1.0
	for d := 0; d < p.nDims; d++ {
		v := p.cyclesAlong(dm, d, s)
		if de != nil {
			de.dimCycles[d] = v
		}
		cycles *= v
	}
	return p.finish(s, cycles, noc)
}

// checkFanout verifies every spatial slot's joint trip count against its
// fanout, reading the scratch trips table. Reported in slot order with the
// reason string interned at plan-compile time: invalid verdicts are hot in
// sampling pipelines, so the rejection itself must not allocate.
//
//ruby:hotpath
func (p *Plan) checkFanout(s *Scratch) (Cost, bool) {
	for si := range p.slots {
		sl := &p.slots[si]
		if !sl.Spatial() {
			continue
		}
		used := 1
		row := s.trips[si*p.nDims : si*p.nDims+p.nDims]
		for d := 0; d < p.nDims; d++ {
			used *= row[d]
		}
		if used > sl.Fanout {
			return Cost{Reason: p.fanoutReason[si]}, true
		}
	}
	return Cost{}, false
}

// tileVolume is tensor ti's tile volume in words when dimension d spans
// exts[d] iterations: the product over its coordinates of the halo extent
// 1 + sum(stride * (extent - 1)). Every stride is at least 1, so the volume
// never shrinks when an extent grows.
//
//ruby:hotpath
func (p *Plan) tileVolume(ti int, exts []int) int64 {
	vol := int64(1)
	for _, coord := range p.tensors[ti].coords {
		extent := 1
		for _, tm := range coord {
			extent += tm.stride * (exts[tm.dim] - 1)
		}
		vol *= int64(extent)
	}
	return vol
}

// checkCapacity verifies storage residency per level against dedicated or
// shared capacities, in the legacy order. The reason strings are interned
// at plan-compile time (see newPlan), so a capacity reject — the most
// common verdict for random samples — is allocation-free.
//
//ruby:hotpath
func (p *Plan) checkCapacity(s *Scratch) (Cost, bool) {
	for li := 1; li < p.nLevels; li++ {
		var shared int64
		for ti := range p.tensors {
			role := p.tensors[ti].role
			if s.kept[li]&mapping.RoleBit(role) == 0 {
				continue
			}
			v := s.vols[li*p.nTensors+ti]
			if p.dedicated[li] {
				if v > p.roleCap[li][role] {
					return Cost{Reason: p.dedicatedReason[li][role]}, true
				}
			} else {
				shared += v
			}
		}
		if !p.dedicated[li] && p.sharedCap[li] > 0 && shared > p.sharedCap[li] {
			return Cost{Reason: p.sharedReason[li]}, true
		}
	}
	return Cost{}, false
}

// finish turns accumulated per-level traffic plus the compute-bound cycle
// count into a Cost: bandwidth stretch, utilization, and the energy sums.
// Shared by the full and delta paths so their tail arithmetic is the same
// code.
//
//ruby:hotpath
func (p *Plan) finish(s *Scratch, cycles, noc float64) Cost {
	bwBound := ""
	for li := 0; li < p.nLevels; li++ {
		bw := p.bandwidth[li]
		if bw <= 0 {
			continue
		}
		memCycles := (s.reads[li] + s.writes[li]) / (bw * p.instancesF[li])
		if memCycles > cycles {
			cycles = memCycles
			bwBound = p.arch.Levels[li].Name
		}
	}
	util := p.macs / (cycles * p.lanes)

	// Energy: dynamic accesses + MACs + optional NoC hops and leakage.
	var static float64
	macE := p.macs * p.macEnergyPJ
	energyTot := macE + noc
	for li := 0; li < p.nLevels; li++ {
		s.energy[li] = (s.reads[li] + s.writes[li]) * p.accessPJ[li]
		energyTot += s.energy[li]
		if st := p.staticPJ[li]; st > 0 {
			static += st * cycles * p.instancesF[li]
		}
	}
	energyTot += static

	return Cost{
		Valid:          true,
		Cycles:         cycles,
		MACs:           p.macs,
		Utilization:    util,
		EnergyPJ:       energyTot,
		EDP:            energyTot * cycles,
		LevelReads:     s.reads,
		LevelWrites:    s.writes,
		LevelEnergyPJ:  s.energy,
		MACEnergyPJ:    macE,
		NoCEnergyPJ:    noc,
		StaticEnergyPJ: static,
		BandwidthBound: bwBound,
	}
}

// linkC is the cached contribution of one (tensor, parent, child) link: the
// four per-level accumulator terms plus the NoC term, stored so the delta
// kernel can replay them in the exact order the full kernel adds them.
// Input-role links leave wp and rc zero; adding 0.0 to a non-negative
// accumulator is bitwise inert, so one uniform apply order serves both
// roles.
type linkC struct {
	parent, child int32
	wp, rp        float64 // writes[parent], reads[parent]
	rc, wc        float64 // reads[child], writes[child]
	noc           float64
}

// applyLink accumulates one link contribution, in the exact legacy order.
//
//ruby:hotpath
func applyLink(s *Scratch, noc *float64, lc *linkC) {
	s.writes[lc.parent] += lc.wp
	s.reads[lc.parent] += lc.rp
	s.reads[lc.child] += lc.rc
	s.writes[lc.child] += lc.wc
	*noc += lc.noc
}

// dpC is the cached datapath-side contribution of one tensor at its
// innermost kept level. The NoC term is stored once and (for outputs)
// applied twice, exactly as the full kernel adds it.
type dpC struct {
	inner  int32
	out    bool
	ops    float64
	nocHop float64
}

// applyDP accumulates one datapath contribution, in the exact legacy order.
//
//ruby:hotpath
func applyDP(s *Scratch, noc *float64, dp *dpC) {
	s.reads[dp.inner] += dp.ops
	*noc += dp.nocHop
	if dp.out {
		s.writes[dp.inner] += dp.ops
		*noc += dp.nocHop
	}
}

// linkTraffic is the compiled stationarity walk for one (tensor, parent,
// child) link — the integer-indexed twin of Evaluator.addLinkTraffic, with
// identical multiplication order, returning the contribution record instead
// of accumulating it directly.
//
//ruby:hotpath
func (p *Plan) linkTraffic(dm *mapping.Dense, s *Scratch, ti int, vol float64, parent, child int) linkC {
	t := &p.tensors[ti]
	rel := t.rel
	inRun := true
	fills := 1.0
	readsMult := 1.0
	delivMult := 1.0
	distinct := 1.0

	boundary := p.firstSlot[child]
	for si := boundary - 1; si >= 0; si-- {
		sl := &p.slots[si]
		row := s.trips[si*p.nDims : si*p.nDims+p.nDims]
		if sl.Kind == mapping.Temporal {
			base := sl.Level * p.nDims
			for pi := p.nDims - 1; pi >= 0; pi-- {
				d := int(dm.Perm[base+pi])
				tr := float64(row[d])
				if tr == 1 {
					continue
				}
				r := rel[d]
				if r {
					distinct *= tr
				}
				if inRun && !r {
					continue
				}
				inRun = false
				fills *= tr
			}
			continue
		}
		for d := 0; d < p.nDims; d++ {
			tr := float64(row[d])
			if tr == 1 {
				continue
			}
			if rel[d] {
				readsMult *= tr
				delivMult *= tr
				distinct *= tr
				continue
			}
			delivMult *= tr
			if sl.Level < parent || !sl.Multicast {
				readsMult *= tr
			}
		}
	}

	hop := p.hop[parent][child]
	lc := linkC{parent: int32(parent), child: int32(child)}
	if t.role == workload.Output {
		transfers := fills * delivMult
		writesUp := transfers * vol
		rmw := transfers - distinct
		if rmw < 0 {
			rmw = 0
		}
		rmwv := rmw * vol
		lc.wp, lc.rp, lc.rc, lc.wc = writesUp, rmwv, writesUp, rmwv
		lc.noc = (writesUp + rmwv) * hop
		return lc
	}
	lc.rp = fills * readsMult * vol
	deliv := fills * delivMult * vol
	lc.wc = deliv
	lc.noc = deliv * hop
	return lc
}

// dpTraffic computes one tensor's datapath-side contribution at its
// innermost kept level.
//
//ruby:hotpath
func (p *Plan) dpTraffic(dm *mapping.Dense, s *Scratch, ti, inner int) dpC {
	ops := p.macs / p.broadcastBelow(dm, s, ti, inner)
	return dpC{
		inner:  int32(inner),
		out:    p.tensors[ti].role == workload.Output,
		ops:    ops,
		nocHop: ops * p.hop[inner][p.nLevels],
	}
}

// broadcastBelow is the compiled twin of Evaluator.broadcastBelow.
//
//ruby:hotpath
func (p *Plan) broadcastBelow(dm *mapping.Dense, s *Scratch, ti, li int) float64 {
	rel := p.tensors[ti].rel
	share := 1.0
	for si := range p.slots {
		sl := &p.slots[si]
		if !sl.Spatial() || sl.Level < li || !sl.Multicast {
			continue
		}
		for d := 0; d < p.nDims; d++ {
			if rel[d] {
				continue
			}
			if tr := s.trips[sl.Index*p.nDims+d]; tr > 1 {
				share *= float64(tr)
			}
		}
	}
	return share
}

// cyclesAlong is the compiled twin of Evaluator.cyclesAlong: the exact
// remainder-aware latency recursion, memoized in the scratch's per-slot
// lists instead of a freshly allocated map.
//
//ruby:hotpath
func (p *Plan) cyclesAlong(dm *mapping.Dense, d int, s *Scratch) float64 {
	row := dm.Cum[d*p.stride : d*p.stride+p.stride]
	for si := 0; si < p.nSlots; si++ {
		s.memoChunk[si] = s.memoChunk[si][:0]
		s.memoVal[si] = s.memoVal[si][:0]
	}
	return p.cyclesRec(row, s, row[0], 0)
}

// cyclesRec is the memoized latency recursion behind cyclesAlong.
//
//ruby:hotpath
func (p *Plan) cyclesRec(row []int, s *Scratch, chunk, si int) float64 {
	if si == p.nSlots {
		return 1
	}
	sub := row[si+1]
	if p.slots[si].Spatial() {
		if chunk < sub {
			sub = chunk
		}
		return p.cyclesRec(row, s, sub, si+1)
	}
	if sub >= chunk {
		return p.cyclesRec(row, s, chunk, si+1)
	}
	for i, c := range s.memoChunk[si] {
		if c == chunk {
			return s.memoVal[si][i]
		}
	}
	n := (chunk + sub - 1) / sub
	rem := chunk - (n-1)*sub
	v := float64(n-1)*p.cyclesRec(row, s, sub, si+1) + p.cyclesRec(row, s, rem, si+1)
	s.memoChunk[si] = append(s.memoChunk[si], chunk)
	s.memoVal[si] = append(s.memoVal[si], v)
	return v
}
