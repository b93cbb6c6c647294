// Network-level search: the network-graph entry point over RunSuiteLayers,
// plus fusion-aware segment search. A fused segment pins a producer layer's
// tiling to its consumer's input-tile boundaries (mapspace.FuseTileOf) so the
// intermediate tensor stays at the shared on-chip level and its DRAM
// round-trip is elided (nest.FusedEvaluator). Segments are searched per edge,
// so.Parallel edges at a time, then selected greedily without sharing nodes,
// so each layer participates in at most one fused pair.
package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// FuseLevel is the memory level fused intermediates live at: the first
// on-chip level above DRAM (the global buffer in the Eyeriss- and Simba-like
// hierarchies).
const FuseLevel = 1

// RunSuite searches every node of a network graph per-layer and aggregates
// repeat-weighted totals — the network-graph entry point over RunSuiteLayers.
// Edges are ignored here: an edge-free graph and a connected one produce the
// same per-layer totals, so []Layer callers migrate by wrapping their suite
// with workloads.NetworkFromLayers. Fusion across edges is SearchNetwork's
// job.
func RunSuite(ctx context.Context, net *workload.Network, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions) (*SuiteResult, error) {

	return RunSuiteLayers(ctx, workloads.LayersOf(net), a, st, consFn, so)
}

// SegmentResult is one fused producer→consumer pair selected by
// SearchNetwork: the edge, the mappings the fused evaluation won with, and
// the per-repeat baseline it beats.
type SegmentResult struct {
	// From, To name the producer and consumer nodes; EdgeIndex is the edge's
	// position in the network.
	From, To  string
	EdgeIndex int
	// Repeat is the fused repeat count: min of the two nodes' repeats. Any
	// leftover repeats of either node stay at their per-layer baseline.
	Repeat int
	// Fused is the winning fused evaluation (combined cycles, energy, EDP and
	// the DRAM words elided).
	Fused nest.FusedCost
	// Producer and Consumer are the winning mappings. Consumer usually is the
	// per-layer baseline winner but may differ when a fusion-friendlier
	// consumer tiling wins overall.
	Producer, Consumer *mapping.Mapping
	// BaselineEnergyPJ and BaselineCycles are the pair's per-repeat per-layer
	// baseline, the yardstick the fused result strictly beats.
	BaselineEnergyPJ float64
	BaselineCycles   float64
	// Evaluated counts the fused pair evaluations this segment's search
	// performed (0 when restored from a checkpoint).
	Evaluated int64
}

// GainPJ returns the repeat-weighted energy the fusion saves over the
// per-layer baseline (negative when the segment trades energy for cycles).
func (sr *SegmentResult) GainPJ() float64 {
	return float64(sr.Repeat) * (sr.BaselineEnergyPJ - sr.Fused.EnergyPJ)
}

// gainEDP is the repeat-weighted pair-EDP improvement the greedy selection
// orders candidates by.
func (sr *SegmentResult) gainEDP() float64 {
	return float64(sr.Repeat) * (sr.BaselineEnergyPJ*sr.BaselineCycles - sr.Fused.EDP)
}

// NetworkResult is the outcome of a network search: the per-layer baseline,
// the fused segments selected (empty when fusion is off or never wins), and
// the network totals with those segments applied.
type NetworkResult struct {
	Network  *workload.Network
	Strategy Strategy
	Arch     *arch.Arch

	// Baseline is the per-layer suite result every node starts from.
	Baseline *SuiteResult
	// Segments are the selected fused pairs, in selection (descending-gain)
	// order.
	Segments []SegmentResult

	// Repeat-weighted network totals with the fused segments applied; equal
	// to the baseline totals when Segments is empty. EDP is TotalEnergy x
	// TotalCycles, the same whole-network product the per-layer suites
	// report.
	TotalEnergyPJ float64
	TotalCycles   float64
	EDP           float64
}

// SearchNetwork searches a network on one architecture under one strategy:
// a per-layer baseline over every node, then — when fuse is set — a fused
// search per edge in the producer mapspace constrained to the consumer's
// tile boundaries, keeping segments whose fused pair EDP strictly beats the
// pair's per-layer baseline, selected greedily so no node fuses twice and
// every kept segment strictly lowers the network EDP. The returned totals
// therefore never exceed the baseline's, and improve strictly whenever any
// segment is kept. Segment searches run so.Parallel at a time, each seeded
// from so.Search.Seed and its edge's names, so runs are reproducible and
// independent of the schedule, and so.Checkpoint (when set) persists both
// the baseline layers and the per-edge segment outcomes.
func SearchNetwork(ctx context.Context, net *workload.Network, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions, fuse bool) (*NetworkResult, error) {

	ctx, span := obs.StartSpan(ctx, "network:"+net.Name)
	defer span.End()
	so = so.withDefaults()
	base, err := RunSuiteLayers(ctx, workloads.LayersOf(net), a, st, consFn, so)
	if err != nil {
		return nil, err
	}
	out := &NetworkResult{
		Network: net, Strategy: st, Arch: a, Baseline: base,
		TotalEnergyPJ: base.TotalEnergyPJ, TotalCycles: base.TotalCycles, EDP: base.EDP,
	}
	if !fuse || len(net.Edges) == 0 {
		return out, nil
	}
	binds, err := net.Bindings()
	if err != nil {
		return nil, fmt.Errorf("sweep: network %s: %w", net.Name, err)
	}
	byName := make(map[string]LayerResult, len(base.Layers))
	for _, lr := range base.Layers {
		byName[lr.Layer.Name] = lr
	}

	// Segment searches are independent — each seeds its own RNG from the
	// edge (segmentSeed) — so they run so.Parallel at a time, and the
	// outcomes, collected by edge index, do not depend on the schedule.
	type outcome struct {
		sr SegmentResult
		ok bool
	}
	outcomes := make([]outcome, len(binds))
	err = forEachIndex(ctx, len(binds), so.Parallel, func(i int) error {
		b := binds[i]
		sr, ok, err := searchSegmentCached(ctx, b, a, st, consFn, so,
			byName[b.Prod.Name], byName[b.Cons.Name])
		outcomes[i] = outcome{sr, ok}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: network %s: %w", net.Name, err)
	}
	var candidates []SegmentResult
	for _, o := range outcomes {
		if o.ok {
			candidates = append(candidates, o.sr)
		}
	}

	// Greedy non-overlapping selection by descending pair-EDP gain (ties by
	// edge order, keeping the run deterministic). A candidate may trade
	// energy against cycles, and network EDP is a product of sums, so each
	// is applied to the running totals and kept only when the network EDP
	// strictly drops.
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].gainEDP() > candidates[j].gainEDP()
	})
	used := make(map[string]bool)
	for _, c := range candidates {
		if used[c.From] || used[c.To] {
			continue
		}
		r := float64(c.Repeat)
		e := out.TotalEnergyPJ + r*(c.Fused.EnergyPJ-c.BaselineEnergyPJ)
		cy := out.TotalCycles + r*(c.Fused.Cycles-c.BaselineCycles)
		if e*cy >= out.EDP {
			continue
		}
		used[c.From], used[c.To] = true, true
		out.Segments = append(out.Segments, c)
		out.TotalEnergyPJ, out.TotalCycles, out.EDP = e, cy, e*cy
	}
	return out, nil
}

// searchSegmentCached resumes a recorded segment outcome when the checkpoint
// has one for this exact search configuration, otherwise searches and records
// it. Negative outcomes (no fused pair beat the baseline) are recorded too,
// so resumed runs skip hopeless edges instead of re-searching them.
func searchSegmentCached(ctx context.Context, b workload.EdgeBinding, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions, bp, bc LayerResult) (SegmentResult, bool, error) {

	ctx, span := obs.StartSpan(ctx, "segment:"+b.Prod.Name+"->"+b.Cons.Name)
	defer span.End()
	if bp.Search == nil || bc.Search == nil {
		return SegmentResult{}, false, nil
	}
	if so.Checkpoint != nil {
		if sr, fused, ok := so.Checkpoint.resumeSegment(b, a, st, so.Search, bp, bc); ok {
			return sr, fused, nil
		}
	}
	sr, ok, err := searchSegment(ctx, b, a, st, consFn, so, bp, bc)
	if err != nil {
		return sr, ok, err
	}
	if so.Checkpoint != nil {
		if err := so.Checkpoint.recordSegment(b, a, st, so.Search, sr, ok); err != nil {
			return sr, ok, err
		}
	}
	return sr, ok, nil
}

// segmentConsumers is how many shortlisted consumer tilings a segment search
// spends producer budget on: the baseline winner (when fusable) plus the
// best fusable consumers found by sampling.
const segmentConsumers = 4

// searchSegment searches one edge for a fused pair strictly better than the
// two layers' per-layer baseline. The unconstrained per-layer winner's
// tiling is rarely fusable (fusion needs the intermediate resident at the
// shared level and a single-fetch consumer), so the search is staged:
//
//  1. shortlist fusable consumer tilings — the baseline winner plus sampled
//     candidates passing nest's consumer-side preconditions, ranked by
//     per-layer EDP;
//  2. per candidate, derive the producer's fused-tile constraint
//     (mapspace.FuseTileOf), sample producers inside the constrained
//     mapspace until the fused evaluation is valid, then hill-climb the
//     producer with the fused mapspace's mutator on the fused pair EDP.
//
// A candidate is returned only when the winning fused evaluation's pair EDP
// is strictly below the baseline pair's; SearchNetwork's selection then
// verifies each candidate against the actual network totals.
func searchSegment(ctx context.Context, b workload.EdgeBinding, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions, bp, bc LayerResult) (SegmentResult, bool, error) {

	fe, err := nest.NewFusedEvaluator(b, a, FuseLevel)
	if err != nil {
		return SegmentResult{}, false, nil // hierarchy cannot host the fusion
	}
	baseE := bp.Cost.EnergyPJ + bc.Cost.EnergyPJ
	baseC := bp.Cost.Cycles + bc.Cost.Cycles
	budget := so.Search.MaxEvaluations
	if budget <= 0 {
		budget = 2000
	}
	rng := rand.New(rand.NewSource(segmentSeed(so.Search.Seed, a, b)))
	csp := mapspace.New(b.Cons.Work, a, st.Kind, consFn(b.Cons.Work))

	sr := SegmentResult{
		From: b.Prod.Name, To: b.Cons.Name, EdgeIndex: b.EdgeIndex,
		Repeat:           minInt(b.Prod.Repeats(), b.Cons.Repeats()),
		BaselineEnergyPJ: baseE, BaselineCycles: baseC,
	}

	// Stage 1: shortlist fusable consumers, best per-layer EDP first. The
	// shortlist owns its mappings; samples are drawn in place, and a kept
	// sample is replaced as the draw target by the entry it evicted.
	type consumer struct {
		m   *mapping.Mapping
		edp float64
	}
	var cands []consumer
	// offer shortlists m when it is fusable and ranks among the best
	// segmentConsumers, and returns the mapping the caller may draw into
	// next: m itself when it was not kept, otherwise the evicted entry (nil
	// when the shortlist had room).
	offer := func(m *mapping.Mapping) *mapping.Mapping {
		c, ok := fe.ConsumerFusableInto(m)
		sr.Evaluated++
		if !ok {
			return m
		}
		i := len(cands)
		for i > 0 && c.EDP < cands[i-1].edp {
			i--
		}
		if i == segmentConsumers {
			return m
		}
		var evicted *mapping.Mapping
		if len(cands) == segmentConsumers {
			evicted = cands[len(cands)-1].m
			cands = cands[:len(cands)-1]
		}
		cands = append(cands, consumer{})
		copy(cands[i+1:], cands[i:])
		cands[i] = consumer{m, c.EDP}
		return evicted
	}
	if bc.Workload == b.Cons.Work { // the winner, unless a padded variant won
		// A copy: the shortlist climbs its entries in place, and the
		// winner is shared with the baseline and with concurrent segments.
		offer(bc.Search.Best.Clone())
	}
	smp := csp.NewSampler()
	m := &mapping.Mapping{}
	for i := int64(0); i < budget/4; i++ {
		smp.SampleInto(rng, m)
		if m = offer(m); m == nil {
			m = &mapping.Mapping{}
		}
	}
	// Random fusable samples are usually far off the per-layer winner, so
	// hill-climb each shortlisted consumer within the fusable region, in
	// place: a rejected move is undone.
	cmu := csp.NewMutator()
	if len(cands) > 0 {
		steps := budget / 4 / int64(len(cands))
		for i := range cands {
			cm := cands[i].m
			for j := int64(0); j < steps; j++ {
				mv := cmu.Propose(rng)
				mv.Apply(cm)
				c, ok := fe.ConsumerFusableInto(cm)
				sr.Evaluated++
				if ok && c.EDP < cands[i].edp {
					cands[i].edp = c.EDP
				} else {
					mv.Undo(cm)
				}
			}
		}
	}

	// Stage 2: constrained producer search per shortlisted consumer, its
	// consumer half priced once (BindConsumer) and each producer proposal
	// by the producer half alone.
	found := false
	perCons := budget / 2 / int64(segmentConsumers)
	if perCons < 1 {
		perCons = 1
	}
	for _, cand := range cands {
		if ctx != nil && ctx.Err() != nil {
			return SegmentResult{}, false, fmt.Errorf("sweep: segment %s->%s: %w", b.Prod.Name, b.Cons.Name, ctx.Err())
		}
		cm := cand.m
		ft, err := mapspace.FuseTileOf(b, a, cm, FuseLevel)
		if err != nil {
			continue
		}
		pcons := consFn(b.Prod.Work)
		pcons.FuseTile, pcons.FuseLevel = ft, FuseLevel
		psp := mapspace.New(b.Prod.Work, a, st.Kind, pcons)
		psmp, mu := psp.NewSampler(), psp.NewMutator()
		fe.BindConsumer(cm)

		// Sample until a producer is valid, then hill-climb it in place.
		pm := &mapping.Mapping{}
		have := false
		var bestEDP float64
		for j := int64(0); j < perCons; j++ {
			var mv *mapspace.Move
			if have {
				mv = mu.Propose(rng)
				mv.Apply(pm)
			} else {
				psmp.SampleInto(rng, pm)
			}
			sr.Evaluated++
			fc := fe.EvaluateProducerInto(pm)
			if fc.Valid && (!have || fc.EDP < bestEDP) {
				have, bestEDP = true, fc.EDP
			} else if mv != nil {
				mv.Undo(pm)
			}
		}
		if !have || bestEDP >= baseE*baseC {
			continue
		}
		if !found || bestEDP < sr.Fused.EDP {
			found = true
			sr.Fused, sr.Producer, sr.Consumer = fe.Evaluate(pm, cm), pm, cm
		}
	}
	return sr, found, nil
}

// segmentSeed derives a deterministic per-edge RNG seed from the search seed
// and the segment's identity, so segment searches are reproducible and
// independent of edge order.
func segmentSeed(seed int64, a *arch.Arch, b workload.EdgeBinding) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s->%s", a.Name, b.Prod.Name, b.Cons.Name)
	return seed ^ int64(h.Sum64())
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
