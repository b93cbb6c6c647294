package nest

import (
	"fmt"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// FusedCost is the evaluation result for one fused producer/consumer pair:
// both layers run with the intermediate tensor resident at the shared
// on-chip level, eliding its DRAM round-trip. Producer and Consumer carry
// the per-phase costs after elision; the combined metrics model the phases
// running back to back on the same hardware.
type FusedCost struct {
	// Valid reports whether the pair of mappings admits fusion at all.
	// Invalid results carry a Reason and no metrics.
	Valid  bool
	Reason string

	// Producer and Consumer are the per-phase costs with the intermediate's
	// DRAM traffic elided (bandwidth stretch and leakage recomputed).
	Producer Cost
	Consumer Cost

	// Combined sequential-phase metrics: Cycles and EnergyPJ sum the
	// phases; EDP is their product.
	Cycles   float64
	EnergyPJ float64
	EDP      float64

	// ElidedWords counts the DRAM words the fusion removed (producer
	// writes + consumer reads of the intermediate).
	ElidedWords float64
}

// FusedEvaluator evaluates fused mappings of one network edge: the
// producer's output tensor feeds the consumer's input tensor, both tiled so
// the intermediate lives at one shared on-chip level. It owns its scratch
// memory and its bound consumer: use one FusedEvaluator per goroutine (the
// per-layer Evaluators it is built from stay shared).
//
// Evaluation splits into two halves. BindConsumer computes everything that
// depends on the consumer mapping alone — its per-layer validity, where its
// input lives, the single-fetch check, the input-tile advances the producer
// must align to, the intermediate granule and the consumer phase's cost
// with the DRAM reads elided — once per consumer. EvaluateProducerInto then
// prices one producer mapping against the bound consumer with a single
// per-layer kernel run, so a producer search pays for the consumer once.
// Evaluate(pm, cm) is exactly the two halves back to back.
type FusedEvaluator struct {
	Bind  workload.EdgeBinding
	Arch  *arch.Arch
	Level int // the shared level holding the intermediate

	pe, ce   *Evaluator
	pp, cp   *Plan
	ps, cs   *Scratch
	fuseSlot int

	cons boundConsumer

	// reasons interns invalid verdicts (see invalid): producer proposals
	// fail fusion often enough that formatting each one would dominate
	// the producer half's allocations.
	reasons map[reasonKey]string
}

// boundConsumer is the consumer half of a fused evaluation, computed by
// BindConsumer and read by every EvaluateProducerInto until the next bind.
type boundConsumer struct {
	bound bool
	// fail is the first consumer-side check the consumer failed
	// (consFusable when none), and verdict its interned reason.
	fail    consumerCheck
	verdict string

	adv    []int   // per Bind.Pairs entry, the consumer advance along the pair
	vol    int64   // intermediate granule: the consumer's input tile at Level
	cost   Cost    // consumer phase with the intermediate's DRAM reads elided
	elided float64 // DRAM words of the intermediate the consumer no longer reads
	buf    []float64
}

// consumerCheck names the consumer-side fusion checks. Evaluate reports a
// pair's first failure in one fixed order that interleaves producer and
// consumer checks (lowering, kernel, home level, then alignment and link
// shape); the producer half reports a bound consumer's failure at its place
// in that order, so the verdict does not depend on which half is cached.
type consumerCheck uint8

const (
	consLower   consumerCheck = iota // the consumer mapping does not lower
	consKernel                       // the per-layer kernel rejects it
	consHome                         // its input lives first at another level
	consRefetch                      // it re-fetches its input from DRAM
	consFusable                      // every consumer-side precondition holds
)

// NewFusedEvaluator builds a fused evaluator for one edge binding at the
// given shared level (values < 1 default to level 1).
func NewFusedEvaluator(b workload.EdgeBinding, a *arch.Arch, level int) (*FusedEvaluator, error) {
	if level < 1 {
		level = 1
	}
	if level >= len(a.Levels) {
		return nil, fmt.Errorf("nest: fuse level %d out of range (arch has %d levels)", level, len(a.Levels))
	}
	pe, err := NewEvaluator(b.Prod.Work, a)
	if err != nil {
		return nil, fmt.Errorf("nest: fused producer %s: %w", b.Prod.Name, err)
	}
	ce, err := NewEvaluator(b.Cons.Work, a)
	if err != nil {
		return nil, fmt.Errorf("nest: fused consumer %s: %w", b.Cons.Name, err)
	}
	return &FusedEvaluator{
		Bind: b, Arch: a, Level: level,
		pe: pe, ce: ce,
		pp: pe.plan, cp: ce.plan,
		ps: pe.plan.NewScratch(), cs: ce.plan.NewScratch(),
		fuseSlot: pe.firstSlot[level],
		cons: boundConsumer{
			adv: make([]int, len(b.Pairs)),
			buf: make([]float64, 3*len(a.Levels)),
		},
		reasons: make(map[reasonKey]string),
	}, nil
}

// Producer returns the per-layer evaluator of the edge's producer.
func (f *FusedEvaluator) Producer() *Evaluator { return f.pe }

// Consumer returns the per-layer evaluator of the edge's consumer.
func (f *FusedEvaluator) Consumer() *Evaluator { return f.ce }

// fusedInvalid builds an invalid fused verdict.
func fusedInvalid(format string, args ...any) FusedCost {
	return FusedCost{Reason: fmt.Sprintf(format, args...)}
}

// firstKeptOnChip returns the innermost-of-DRAM level at which the tensor's
// role is first kept (the child of its DRAM link), or -1 when nothing
// on-chip stores it.
func firstKeptOnChip(p *Plan, s *Scratch, ti int) int {
	bit := mapping.RoleBit(p.tensors[ti].role)
	for li := 1; li < p.nLevels; li++ {
		if s.kept[li]&bit != 0 {
			return li
		}
	}
	return -1
}

// linkStats re-runs the stationarity walk of Plan.linkTraffic for one
// (tensor, DRAM->child) link and reports its multipliers: fills and
// readsMult/delivMult as in the kernel, and distinct (the number of distinct
// tiles the walked loops address). The walk mirrors linkTraffic so fused
// validity checks can reason about re-fetch and read-modify-write without
// touching the single-layer kernel.
func linkStats(p *Plan, dm *mapping.Dense, s *Scratch, ti, parent, child int) (fills, readsMult, delivMult, distinct float64) {
	t := &p.tensors[ti]
	rel := t.rel
	inRun := true
	fills, readsMult, delivMult, distinct = 1, 1, 1, 1
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
	return fills, readsMult, delivMult, distinct
}

// ConsumerFusable reports whether a consumer mapping satisfies the
// consumer-side fusion preconditions on its own — input resident at the
// fused level and fetched from DRAM exactly once — along with its per-layer
// cost (detached). Segment searches use it to shortlist consumer tilings
// before spending producer-search budget; Evaluate re-checks everything.
func (f *FusedEvaluator) ConsumerFusable(cm *mapping.Mapping) (Cost, bool) {
	cc, ok := f.ConsumerFusableInto(cm)
	return cc.Clone(), ok
}

// ConsumerFusableInto is ConsumerFusable without the detaching copy: the
// returned Cost's per-level slices alias the evaluator's scratch and are
// overwritten by its next evaluation. Retain with Cost.Clone.
//
//ruby:hotpath
func (f *FusedEvaluator) ConsumerFusableInto(cm *mapping.Mapping) (Cost, bool) {
	cc, _, check := f.consumerInto(cm)
	return cc, check == consFusable
}

// consumerInto runs the consumer's per-layer kernel and its side of the
// fusion preconditions, returning the per-layer cost (aliasing f.cs), the
// consumer's lowering, and the first check it failed (consFusable when
// none).
//
//ruby:hotpath
func (f *FusedEvaluator) consumerInto(cm *mapping.Mapping) (Cost, *mapping.Dense, consumerCheck) {
	cdm, err := cm.Dense(f.cp.work, f.cp.arch, f.cp.slots)
	if err != nil {
		return invalidDense(err), nil, consLower
	}
	cc := f.cp.EvaluateInto(cdm, f.cs)
	if !cc.Valid {
		return cc, cdm, consKernel
	}
	inTi := f.Bind.InIndex
	if firstKeptOnChip(f.cp, f.cs, inTi) != f.Level {
		return cc, cdm, consHome
	}
	cFills, cReads, _, cDistinct := linkStats(f.cp, cdm, f.cs, inTi, 0, f.Level)
	if cFills*cReads > cDistinct {
		return cc, cdm, consRefetch
	}
	return cc, cdm, consFusable
}

// BindConsumer computes the consumer half of fused evaluation for cm and
// keeps it for the EvaluateProducerInto calls that follow, until the next
// bind. It reports whether cm passes the consumer-side preconditions (as
// ConsumerFusable does); a consumer that fails is still bound, and every
// producer evaluated against it reports the failure at the point Evaluate
// would. The half is a snapshot: mutating cm afterwards does not change it.
func (f *FusedEvaluator) BindConsumer(cm *mapping.Mapping) bool {
	c := &f.cons
	c.bound = true
	cc, cdm, check := f.consumerInto(cm)
	c.fail = check
	F, inTi := f.Level, f.Bind.InIndex
	switch check {
	case consLower, consKernel:
		c.verdict = f.reason(reasonKey{kind: reasonConsumer, s: cc.Reason})
		return false
	case consHome:
		c.verdict = f.reason(reasonKey{kind: reasonConsumerHome, a: int64(firstKeptOnChip(f.cp, f.cs, inTi))})
		return false
	}

	// The advance along each corresponded dimension — the producer
	// elements one consumer input tile consumes — and the intermediate
	// granule, both read by the producer half's alignment and residency
	// checks.
	csi := f.ce.firstSlot[F]
	for k, pr := range f.Bind.Pairs {
		adv := pr.Stride * cdm.CumAt(int(pr.ConsID), csi)
		if bp := f.Bind.Prod.Work.Bound(pr.ProdDim); adv > bp {
			adv = bp
		}
		c.adv[k] = adv
	}
	c.vol = f.cs.vols[F*f.cp.nTensors+inTi]
	if check == consRefetch {
		c.verdict = f.reason(reasonKey{kind: reasonRefetch})
		return false
	}

	// Elide the consumer's DRAM reads of the intermediate and redo its
	// latency/energy tail, so bandwidth stretch and leakage follow the
	// reduced traffic.
	clc := f.cp.linkTraffic(cdm, f.cs, inTi, float64(c.vol), 0, F)
	f.cs.reads[0] -= clc.rp
	f.cs.writes[F] -= clc.wc
	cCycles := 1.0
	for d := 0; d < f.cp.nDims; d++ {
		cCycles *= f.cp.cyclesAlong(cdm, d, f.cs)
	}
	c.cost = f.cp.finish(f.cs, cCycles, cc.NoCEnergyPJ-clc.noc).CloneInto(c.buf)
	c.elided = clc.rp
	return true
}

// EvaluateProducerInto is the producer half: the fused cost of producer
// mapping pm against the consumer bound by BindConsumer. It runs the
// producer's per-layer kernel once, then the remaining fusion checks and
// the producer's DRAM-elision tail. The returned Producer cost aliases the
// evaluator's scratch and Consumer the bound consumer; both are overwritten
// by the next evaluation or bind (retain with Cost.Clone). Invalid verdicts
// are interned, so steady-state producer search allocates nothing.
//
//ruby:hotpath
func (f *FusedEvaluator) EvaluateProducerInto(pm *mapping.Mapping) FusedCost {
	c := &f.cons
	if !c.bound {
		panic("nest: EvaluateProducerInto without a bound consumer")
	}
	pdm, err := pm.Dense(f.pp.work, f.pp.arch, f.pp.slots)
	if err != nil {
		return f.invalid(reasonKey{kind: reasonProducer, s: invalidDense(err).Reason})
	}
	if c.fail == consLower {
		return FusedCost{Reason: c.verdict}
	}
	pc := f.pp.EvaluateInto(pdm, f.ps)
	if !pc.Valid {
		return f.invalid(reasonKey{kind: reasonProducer, s: pc.Reason})
	}
	if c.fail == consKernel {
		return FusedCost{Reason: c.verdict}
	}

	F := f.Level
	outTi := f.Bind.OutIndex

	// The intermediate's home: the producer's output and the consumer's
	// input must both live first at the shared level, so the elided DRAM
	// link is exactly (DRAM -> F) on both sides.
	if li := firstKeptOnChip(f.pp, f.ps, outTi); li != F {
		return f.invalid(reasonKey{kind: reasonProducerHome, a: int64(li)})
	}
	if c.fail == consHome {
		return FusedCost{Reason: c.verdict}
	}

	// Tile alignment: along every corresponded dimension the producer's
	// extent at the fused level must divide the consumer's advance, so
	// produced tiles compose exactly into consumed tiles.
	for k, pr := range f.Bind.Pairs {
		pe := pdm.CumAt(int(pr.ProdID), f.fuseSlot)
		if c.adv[k]%pe != 0 {
			return f.invalid(reasonKey{kind: reasonAlign, a: int64(k), b: int64(pe), c: int64(c.adv[k])})
		}
	}

	// Traffic-shape checks on the two links being elided. The producer must
	// not accumulate partial outputs through DRAM (nothing to elide then:
	// the round-trip is load-bearing), and the consumer must touch each
	// intermediate element in DRAM exactly once (a re-fetching consumer
	// would need the whole tensor resident, not one granule).
	pFills, _, pDeliv, pDistinct := linkStats(f.pp, pdm, f.ps, outTi, 0, F)
	if rmw := pFills*pDeliv - pDistinct; rmw > 0 {
		return f.invalid(reasonKey{kind: reasonAccumulate})
	}
	if c.fail == consRefetch {
		return FusedCost{Reason: c.verdict}
	}

	// Joint residency at the fused level: the intermediate granule is the
	// consumer's input tile (the producer accumulates it there before the
	// consumer phase drains it), alongside the producer's other tensors.
	if f.pp.dedicated[F] {
		if c.vol > f.pp.roleCap[F][workload.Output] {
			return f.invalid(reasonKey{kind: reasonDedicated, a: c.vol})
		}
	} else if cap := f.pp.sharedCap[F]; cap > 0 {
		resident := c.vol
		for ti := range f.pp.tensors {
			if ti == outTi {
				continue
			}
			if f.ps.kept[F]&mapping.RoleBit(f.pp.tensors[ti].role) != 0 {
				resident += f.ps.vols[F*f.pp.nTensors+ti]
			}
		}
		if resident > cap {
			return f.invalid(reasonKey{kind: reasonShared, a: resident})
		}
	}

	// Elide the DRAM round-trip on the producer side: subtract its
	// (DRAM -> F) link for the intermediate from the surviving scratch
	// accumulators, then redo the latency/energy tail.
	plc := f.pp.linkTraffic(pdm, f.ps, outTi, float64(f.ps.vols[F*f.pp.nTensors+outTi]), 0, F)
	f.ps.writes[0] -= plc.wp
	f.ps.reads[0] -= plc.rp
	f.ps.reads[F] -= plc.rc
	f.ps.writes[F] -= plc.wc
	pCycles := 1.0
	for d := 0; d < f.pp.nDims; d++ {
		pCycles *= f.pp.cyclesAlong(pdm, d, f.ps)
	}
	fp := f.pp.finish(f.ps, pCycles, pc.NoCEnergyPJ-plc.noc)

	cycles := fp.Cycles + c.cost.Cycles
	energy := fp.EnergyPJ + c.cost.EnergyPJ
	return FusedCost{
		Valid:       true,
		Producer:    fp,
		Consumer:    c.cost,
		Cycles:      cycles,
		EnergyPJ:    energy,
		EDP:         energy * cycles,
		ElidedWords: plc.wp + c.elided,
	}
}

// Evaluate computes the fused cost of (producer mapping, consumer mapping):
// BindConsumer(cm) then EvaluateProducerInto(pm), with the per-phase Costs
// detached from the evaluator. Both mappings are evaluated by the unchanged
// per-layer kernel; when the pair admits fusion, the intermediate's DRAM
// link is subtracted from both sides and latency, bandwidth stretch and
// leakage are recomputed.
func (f *FusedEvaluator) Evaluate(pm, cm *mapping.Mapping) FusedCost {
	f.BindConsumer(cm)
	fc := f.EvaluateProducerInto(pm)
	if fc.Valid {
		fc.Producer, fc.Consumer = fc.Producer.Clone(), fc.Consumer.Clone()
	}
	return fc
}

// reasonKind names one fused invalid verdict; reasonKey adds the values
// its message interpolates.
type reasonKind uint8

const (
	reasonProducer     reasonKind = iota // s: the producer's per-layer reason
	reasonConsumer                       // s: the consumer's per-layer reason
	reasonProducerHome                   // a: the output's first on-chip level
	reasonConsumerHome                   // a: the input's first on-chip level
	reasonAlign                          // a: pair index, b: producer tile, c: consumer advance
	reasonAccumulate
	reasonRefetch
	reasonDedicated // a: the intermediate granule
	reasonShared    // a: the resident words
)

type reasonKey struct {
	kind    reasonKind
	s       string
	a, b, c int64
}

// reason returns k's message, formatting it only the first time it occurs.
//
//ruby:hotpath
func (f *FusedEvaluator) reason(k reasonKey) string {
	r, ok := f.reasons[k]
	if !ok {
		r = f.formatReason(k)
		f.reasons[k] = r
	}
	return r
}

// invalid builds the interned invalid fused verdict for k.
//
//ruby:hotpath
func (f *FusedEvaluator) invalid(k reasonKey) FusedCost {
	return FusedCost{Reason: f.reason(k)}
}

// formatReason renders an invalid verdict's message.
//
//ruby:coldpath
func (f *FusedEvaluator) formatReason(k reasonKey) string {
	prod, cons, F := f.Bind.Prod.Name, f.Bind.Cons.Name, f.Level
	switch k.kind {
	case reasonProducer:
		return fmt.Sprintf("producer %s: %s", prod, k.s)
	case reasonConsumer:
		return fmt.Sprintf("consumer %s: %s", cons, k.s)
	case reasonProducerHome:
		return fmt.Sprintf("producer %s: output lives at level %d, not the fused level %d", prod, k.a, F)
	case reasonConsumerHome:
		return fmt.Sprintf("consumer %s: input lives at level %d, not the fused level %d", cons, k.a, F)
	case reasonAlign:
		pr := f.Bind.Pairs[k.a]
		return fmt.Sprintf("dim %s->%s: producer tile %d does not divide consumer advance %d",
			pr.ProdDim, pr.ConsDim, k.b, k.c)
	case reasonAccumulate:
		return fmt.Sprintf("producer %s: output accumulates partial sums through DRAM", prod)
	case reasonRefetch:
		return fmt.Sprintf("consumer %s: input is re-fetched from DRAM", cons)
	case reasonDedicated:
		return fmt.Sprintf("level %d: intermediate granule %d words exceeds dedicated output capacity %d",
			F, k.a, f.pp.roleCap[F][workload.Output])
	default: // reasonShared
		return fmt.Sprintf("level %d: intermediate granule plus producer tiles (%d words) exceed shared capacity %d",
			F, k.a, f.pp.sharedCap[F])
	}
}

// EvaluateDisabled evaluates the pair with fusion off: both layers run
// through the unchanged per-layer kernel and the phases are summed. This is
// the differential baseline — its per-phase Costs are bit-identical to
// evaluating each layer with its own Evaluator.
func (f *FusedEvaluator) EvaluateDisabled(pm, cm *mapping.Mapping) FusedCost {
	pc := f.pp.EvaluateMappingInto(pm, f.ps)
	if !pc.Valid {
		return fusedInvalid("producer %s: %s", f.Bind.Prod.Name, pc.Reason)
	}
	pc = pc.Clone()
	cc := f.cp.EvaluateMappingInto(cm, f.cs)
	if !cc.Valid {
		return fusedInvalid("consumer %s: %s", f.Bind.Cons.Name, cc.Reason)
	}
	cc = cc.Clone()
	cycles := pc.Cycles + cc.Cycles
	energy := pc.EnergyPJ + cc.EnergyPJ
	return FusedCost{
		Valid:    true,
		Producer: pc,
		Consumer: cc,
		Cycles:   cycles,
		EnergyPJ: energy,
		EDP:      energy * cycles,
	}
}
