// Benchmarks regenerating every table and figure of the paper's evaluation
// (at reduced search budgets — run cmd/rubyexp -full for paper fidelity),
// plus microbenchmarks and ablations of the cost model and samplers.
//
// Each experiment benchmark reports a headline metric from the regenerated
// data alongside the wall time, so `go test -bench=.` doubles as a smoke
// check that the paper's shapes still hold.
package ruby

import (
	"context"

	"math/rand"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/exp"
	"ruby/internal/heuristic"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/search"
	"ruby/internal/sim"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

func benchCfg(evals int64) exp.Config {
	return exp.Config{
		Opt:  search.Options{Seed: 1, Threads: 4, MaxEvaluations: evals},
		Runs: 1,
	}
}

func runExp(b *testing.B, name string, cfg exp.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background(), name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the mapspace-size table (exact counting, no
// search).
func BenchmarkTable1(b *testing.B) { b.ReportAllocs(); runExp(b, "table1", benchCfg(0)) }

// BenchmarkFig7 regenerates one convergence subfigure (Fig. 7b: 100x100
// matmul on 16 mismatched PEs, all four mapspaces).
func BenchmarkFig7(b *testing.B) { b.ReportAllocs(); runExp(b, "fig7b", benchCfg(3000)) }

// BenchmarkFig8 regenerates the dimension sweep against padding (exhaustive
// toy mapspaces; fully deterministic).
func BenchmarkFig8(b *testing.B) { b.ReportAllocs(); runExp(b, "fig8", benchCfg(0)) }

// BenchmarkFig9 regenerates the AlexNet layer-2 study.
func BenchmarkFig9(b *testing.B) { b.ReportAllocs(); runExp(b, "fig9", benchCfg(5000)) }

// BenchmarkFig10 regenerates the ResNet-50 per-layer comparison on the
// Eyeriss-like baseline.
func BenchmarkFig10(b *testing.B) { b.ReportAllocs(); runExp(b, "fig10", benchCfg(1000)) }

// BenchmarkFig11 regenerates the DeepBench comparison on the Eyeriss-like
// baseline.
func BenchmarkFig11(b *testing.B) { b.ReportAllocs(); runExp(b, "fig11", benchCfg(1000)) }

// BenchmarkFig12 regenerates the ResNet-50 comparison on both Simba-like
// configurations.
func BenchmarkFig12(b *testing.B) { b.ReportAllocs(); runExp(b, "fig12", benchCfg(800)) }

// BenchmarkFig13 regenerates the ResNet-50 area-EDP Pareto sweep.
func BenchmarkFig13(b *testing.B) { b.ReportAllocs(); runExp(b, "fig13a", benchCfg(250)) }

// BenchmarkFig13DeepBench regenerates the DeepBench sweep.
func BenchmarkFig13DeepBench(b *testing.B) { b.ReportAllocs(); runExp(b, "fig13b", benchCfg(250)) }

// BenchmarkFig14 regenerates the per-configuration improvement study.
func BenchmarkFig14(b *testing.B) { b.ReportAllocs(); runExp(b, "fig14a", benchCfg(250)) }

// BenchmarkFig14DeepBench regenerates the DeepBench improvement study.
func BenchmarkFig14DeepBench(b *testing.B) { b.ReportAllocs(); runExp(b, "fig14b", benchCfg(250)) }

// --- Microbenchmarks -------------------------------------------------------

// engineBenchSetup builds the engine-benchmark fixture: a convolution
// evaluator plus a fixed pool of sampled mappings that the loop cycles
// through, so the cached variant measures steady-state memo hits.
func engineBenchSetup() (*engine.Engine, *engine.Engine, []*mapping.Mapping) {
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	rng := rand.New(rand.NewSource(1))
	ms := make([]*mapping.Mapping, 256)
	for i := range ms {
		ms[i] = sp.Sample(rng)
	}
	uncached := engine.New(ev)
	cached := engine.Config{CacheEntries: 1 << 12}.New(ev)
	return uncached, cached, ms
}

// BenchmarkEngineUncached measures the zero-allocation uncached engine path
// — a per-goroutine Worker's EvaluateShared over pre-lowered valid mappings,
// the steady-state inner loop of every cache-less search worker. (The
// convenience Engine.Evaluate entry detaches its result with Cost.Clone and
// so allocates by design; invalid verdicts likewise allocate their Reason
// string. Neither belongs in the hot loop this benchmark gates.)
func BenchmarkEngineUncached(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	eng := engine.New(ev)
	wk := eng.NewWorker()
	rng := rand.New(rand.NewSource(1))
	valid := make([]*mapping.Mapping, 0, 64)
	for i := 0; i < 200000 && len(valid) < cap(valid); i++ {
		m := sp.Sample(rng)
		if wk.EvaluateShared(m).Valid {
			valid = append(valid, m)
		}
	}
	if len(valid) == 0 {
		b.Fatal("no valid mappings in the benchmark pool")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wk.EvaluateShared(valid[i%len(valid)])
	}
}

// BenchmarkExhaustiveScan measures the in-place exhaustive scan on one
// fleet-exhaustive shape (a 360x180x36 matmul, Ruby-S, on the Fig. 5
// global-buffer toy: 195,520 mappings) on one thread: the
// enumerator rewriting one batch of reused mappings, lowering, compiled
// evaluation through the engine batch and the serial incumbent commit. One
// op is the whole scan; ns/mapping is the per-mapping cost. The
// allocations are the scan's set-up (enumerator tables, the reused
// mappings' lowerings) and the new incumbents' clones, none per mapping.
func BenchmarkExhaustiveScan(b *testing.B) {
	b.ReportAllocs()
	w := workload.MustMatmul("mm360x180x36", 360, 180, 36)
	a := arch.ToyGLB(6, 512)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{})
	eng := engine.New(nest.MustEvaluator(w, a))
	var mappings int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mappings += search.Exhaustive(context.Background(), sp, eng, search.Options{Threads: 1}, 0).Evaluated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mappings), "ns/mapping")
}

// BenchmarkEngineCached measures steady-state re-evaluation of a working set
// resident in the memo cache. The ISSUE acceptance bar is a >= 5x speedup
// over BenchmarkEngineUncached with bit-identical costs (the costs are
// asserted identical in engine's tests; here we measure the speedup).
func BenchmarkEngineCached(b *testing.B) {
	b.ReportAllocs()
	_, eng, ms := engineBenchSetup()
	for _, m := range ms {
		eng.Evaluate(m) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(ms[i%len(ms)])
	}
}

// BenchmarkEngineCachedSearch measures the shape of a /v1/search layer
// request: a fresh engine with the server's per-request memo cache and a
// one-thread 3000-evaluation random search of ResNet-50's 3x3 layer under
// Ruby-S on the Eyeriss-like array, unconstrained as a request without a
// constraints field. Nearly every draw misses the cache, so this is the
// draw, key, evaluate and insert loop; ns/eval is the per-evaluation cost.
func BenchmarkEngineCachedSearch(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.Constraints{})
	opt := search.Options{Seed: 1, Threads: 1, MaxEvaluations: 3000}
	var evals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.Config{CacheEntries: 1 << 15}.New(ev)
		evals += search.Random(context.Background(), sp, eng, opt).Evaluated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
}

// BenchmarkEvaluateConv measures single-mapping evaluation throughput on a
// 7-dimensional convolution — the inner loop of every search.
func BenchmarkEvaluateConv(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3] // a 3x3 layer
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	rng := rand.New(rand.NewSource(1))
	m := sp.Sample(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(m)
	}
}

// evalBenchSetup builds the compiled-vs-legacy fixture: the Eyeriss-like
// ResNet-50 3x3 layer with a structurally valid sampled mapping (the
// acceptance benchmark of the compiled-plan work).
func evalBenchSetup(b *testing.B) (*nest.Evaluator, *mapping.Mapping) {
	b.Helper()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		m := sp.Sample(rng)
		if ev.Evaluate(m).Valid {
			return ev, m
		}
	}
	b.Fatal("no valid mapping sampled")
	return nil, nil
}

// BenchmarkEvaluateLegacy measures the original string-keyed cost model —
// the before side of the compiled-plan comparison.
func BenchmarkEvaluateLegacy(b *testing.B) {
	b.ReportAllocs()
	ev, m := evalBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateLegacy(m)
	}
}

// BenchmarkEvaluateCompiled measures the compiled plan's allocation-free
// kernel on a per-worker scratch — the steady-state inner loop of every
// search. Acceptance: >= 2x lower ns/op and >= 10x lower allocs/op than
// BenchmarkEvaluateLegacy.
func BenchmarkEvaluateCompiled(b *testing.B) {
	b.ReportAllocs()
	ev, m := evalBenchSetup(b)
	plan := ev.Plan()
	scratch := plan.NewScratch()
	dm, err := m.Dense(ev.Work, ev.Arch, ev.Slots)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.EvaluateInto(dm, scratch)
	}
}

// BenchmarkFusedEvaluate measures the fused-pair evaluation pipeline on a
// ResNet-50 bottleneck edge (1x1 reduce feeding the 3x3): two compiled
// per-layer evaluations plus the fusion validity checks and the DRAM-elision
// tail. The per-layer kernel underneath is the same EvaluateCompiled path the
// bench gate holds to zero allocations; the fused wrapper adds two detached
// result Costs per call.
func BenchmarkFusedEvaluate(b *testing.B) {
	b.ReportAllocs()
	fe, pm, cm := fusedBenchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.Evaluate(pm, cm)
	}
}

// fusedBenchPair samples a fused-valid (producer, consumer) pair on the
// ResNet-50 bottleneck edge res2a_branch2a -> res2x_branch2b.
func fusedBenchPair(b *testing.B) (*nest.FusedEvaluator, *mapping.Mapping, *mapping.Mapping) {
	b.Helper()
	net := workloads.ResNet50Network()
	bind, err := net.Bind(0) // res2a_branch2a -> res2x_branch2b
	if err != nil {
		b.Fatal(err)
	}
	a := arch.EyerissLike(14, 12, 128)
	fe, err := nest.NewFusedEvaluator(bind, a, 1)
	if err != nil {
		b.Fatal(err)
	}
	csp := mapspace.New(bind.Cons.Work, a, mapspace.RubyS, mapspace.Constraints{})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		c := csp.Sample(rng)
		if !fe.Consumer().Evaluate(c).Valid {
			continue
		}
		ft, err := mapspace.FuseTileOf(bind, a, c, 1)
		if err != nil {
			b.Fatal(err)
		}
		psp := mapspace.New(bind.Prod.Work, a, mapspace.RubyS, mapspace.Constraints{
			FuseTile: ft, FuseLevel: 1})
		p := psp.Sample(rng)
		if fe.Evaluate(p, c).Valid {
			return fe, p, c
		}
	}
	b.Fatal("no fused-valid pair sampled")
	return nil, nil, nil
}

// BenchmarkFusedEvaluateProducer measures the producer half a fused segment
// search runs per proposal, on the same pair as BenchmarkFusedEvaluate: the
// consumer is bound once (its validity, advances, granule and elided cost),
// then each iteration prices the producer with one compiled per-layer
// evaluation plus the fusion checks and the producer's DRAM-elision tail.
// The bench gate holds it to zero allocations.
func BenchmarkFusedEvaluateProducer(b *testing.B) {
	b.ReportAllocs()
	fe, pm, cm := fusedBenchPair(b)
	fe.BindConsumer(cm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.EvaluateProducerInto(pm)
	}
}

// BenchmarkSampleEvaluatePipeline measures the full steady-state search
// inner loop — in-place sampling, lowering, and compiled evaluation with a
// reused mapping and scratch.
func BenchmarkSampleEvaluatePipeline(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	plan := ev.Plan()
	scratch := plan.NewScratch()
	smp := sp.NewSampler()
	rng := rand.New(rand.NewSource(1))
	m := &mapping.Mapping{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.SampleInto(rng, m)
		plan.EvaluateMappingInto(m, scratch)
	}
}

// BenchmarkSampleRubyS measures steady-state mapping-generation throughput
// for the Ruby-S mapspace: a worker-owned Sampler refilling one reused
// mapping, allocation-free (the production search inner loop; the
// allocating convenience Sample entry is what one-shot callers use).
func BenchmarkSampleRubyS(b *testing.B) {
	benchSampleInto(b, mapspace.RubyS)
}

// BenchmarkSamplePFM measures steady-state mapping generation for the
// perfect baseline, allocation-free as above.
func BenchmarkSamplePFM(b *testing.B) {
	benchSampleInto(b, mapspace.PFM)
}

func benchSampleInto(b *testing.B, kind mapspace.Kind) {
	b.Helper()
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(layer.Work, a, kind, mapspace.EyerissRowStationary(layer.Work))
	smp := sp.NewSampler()
	rng := rand.New(rand.NewSource(1))
	m := &mapping.Mapping{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.SampleInto(rng, m)
	}
}

// benchNeighborDelta measures one incremental local-search neighbor step at
// steady state: apply a pre-drawn Move to the incumbent, score it with the
// delta kernel, reject and undo. The pool holds only valid proposals —
// invalid neighbors short-circuit in the validity checks and allocate their
// diagnostic Reason string, so they are neither the steady-state cost nor
// the allocation budget this family pins. Proposal drawing itself is
// measured by the sampler benchmarks.
func benchNeighborDelta(b *testing.B, pick func(mu *mapspace.Mutator, rng *rand.Rand) *mapspace.Move) {
	b.Helper()
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	rng := rand.New(rand.NewSource(1))
	var m *mapping.Mapping
	for i := 0; i < 10000 && m == nil; i++ {
		if s := sp.Sample(rng); ev.Evaluate(s).Valid {
			m = s
		}
	}
	if m == nil {
		b.Fatal("no valid mapping sampled")
	}
	plan := ev.Plan()
	dm, err := m.Dense(sp.Work, sp.Arch, sp.Slots())
	if err != nil {
		b.Fatal(err)
	}
	de := plan.NewDeltaEval()
	if c := de.Seed(dm); !c.Valid {
		b.Fatalf("seed invalid: %s", c.Reason)
	}
	// A fixed pool of pre-drawn valid moves, replayed round-robin (each is
	// applied, scored, rejected and undone in place). One mutator per move:
	// a mutator's proposal storage is reused across its Propose calls.
	moves := make([]*mapspace.Move, 16)
	for i := range moves {
		mu := sp.NewMutator()
		for {
			mv := pick(mu, rng)
			mv.Apply(m)
			c := plan.EvaluateDelta(de, mv.Delta())
			de.Reject()
			mv.Undo(m)
			if c.Valid {
				moves[i] = mv
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		mv.Apply(m)
		plan.EvaluateDelta(de, mv.Delta())
		de.Reject()
		mv.Undo(m)
	}
}

// BenchmarkNeighborDelta is the headline neighbor re-evaluation: a
// loop-order (perm) move at a uniformly random level — the canonical cheap
// local-search neighbor, which the delta kernel re-scores by rebuilding only
// the stationarity walks that descend past the changed level.
func BenchmarkNeighborDelta(b *testing.B) {
	benchNeighborDelta(b, func(mu *mapspace.Mutator, rng *rand.Rand) *mapspace.Move {
		return mu.ProposePerm(rng, rng.Intn(len(mu.Space().Arch.Levels)))
	})
}

// BenchmarkNeighborDeltaChain re-scores a tiling-chain resample — a
// near-global perturbation (every stationarity walk multiplies the moved
// dimension's trip counts), so it approaches full-evaluation cost and bounds
// the delta kernel's worst case.
func BenchmarkNeighborDeltaChain(b *testing.B) {
	benchNeighborDelta(b, func(mu *mapspace.Mutator, rng *rand.Rand) *mapspace.Move {
		return mu.ProposeChainID(rng, rng.Intn(mu.NumDims()))
	})
}

// BenchmarkNeighborDeltaMixed replays Mutator.Propose's searcher
// distribution (1/4 perm, 3/4 chain here), the cost a hill-climbing step
// actually pays per proposal.
func BenchmarkNeighborDeltaMixed(b *testing.B) {
	benchNeighborDelta(b, func(mu *mapspace.Mutator, rng *rand.Rand) *mapspace.Move {
		return mu.Propose(rng)
	})
}

// BenchmarkChainCount4096 measures the Table I counting recursion at the
// largest size.
func BenchmarkChainCount4096(b *testing.B) {
	b.ReportAllocs()
	a := arch.ToyLinear(9, 512)
	w := workloads.Rank1(4096)
	sp := mapspace.New(w, a, mapspace.Ruby, mapspace.Constraints{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ChainCount("X")
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationMulticast quantifies the multicast network model: the
// same search with and without multicast support. The reported metric is the
// EDP ratio no-multicast / multicast (> 1 expected: multicast saves parent
// reads).
func BenchmarkAblationMulticast(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	run := func(mcast bool) float64 {
		a := arch.EyerissLike(14, 12, 128)
		a.Levels[1].Fanout.Multicast = mcast
		ev := nest.MustEvaluator(layer.Work, a)
		sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
		r := search.Random(context.Background(), sp, engine.New(ev), search.Options{Seed: 1, Threads: 4, MaxEvaluations: 5000})
		return r.BestCost.EDP
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(false) / run(true)
	}
	b.ReportMetric(ratio, "edp_ratio_nomcast/mcast")
}

// BenchmarkAblationSpatialCap quantifies Ruby-S's fanout-cap pruning: the
// Table I-style chain count with and without the cap of 9. The reported
// metric is the expansion factor removing the cap causes.
func BenchmarkAblationSpatialCap(b *testing.B) {
	b.ReportAllocs()
	w := workloads.Rank1(1000)
	capped := arch.ToyLinear(9, 512)
	var expansion float64
	for i := 0; i < b.N; i++ {
		withCap := mapspace.New(w, capped, mapspace.RubyS, mapspace.Constraints{}).ChainCount("X")
		// Ruby-T has no spatial relaxation to cap; compare against the full
		// Ruby space as the uncapped upper bound.
		unbounded := mapspace.New(w, capped, mapspace.Ruby, mapspace.Constraints{}).ChainCount("X")
		expansion = float64(unbounded) / float64(withCap)
	}
	b.ReportMetric(expansion, "uncapped/capped")
}

// BenchmarkAblationMixtureSampler quantifies the imperfect-slot mixture
// proposal: best EDP found on a misaligned pointwise layer with the
// production sampler, reported as improvement over PFM at the same budget.
func BenchmarkAblationMixtureSampler(b *testing.B) {
	b.ReportAllocs()
	var layer workloads.Layer
	for _, l := range workloads.ResNet50() {
		if l.Name == "res4x_branch2c" {
			layer = l
		}
	}
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	cons := mapspace.EyerissRowStationary(layer.Work)
	var imp float64
	for i := 0; i < b.N; i++ {
		pfm := search.Random(context.Background(), mapspace.New(layer.Work, a, mapspace.PFM, cons), engine.New(ev),
			search.Options{Seed: 1, Threads: 4, MaxEvaluations: 8000})
		rs := search.Random(context.Background(), mapspace.New(layer.Work, a, mapspace.RubyS, cons), engine.New(ev),
			search.Options{Seed: 1, Threads: 4, MaxEvaluations: 8000})
		imp = 100 * (pfm.BestCost.EDP - rs.BestCost.EDP) / pfm.BestCost.EDP
	}
	b.ReportMetric(imp, "edp_improvement_%")
}

// BenchmarkSimulatorRun measures the execution-driven reference simulator on
// a ~4000-step nest.
func BenchmarkSimulatorRun(b *testing.B) {
	b.ReportAllocs()
	w := workloads.Rank1(4000)
	a := arch.ToyGLB(8, 4096)
	s, err := sim.New(w, a, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := mapping.Uniform(w, a, 1)
	m.Factors["X"] = []int{4, 125, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicConstruct measures the one-shot constructive mapper on a
// ResNet pointwise layer.
func BenchmarkHeuristicConstruct(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[14] // res4x_branch2c
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	cons := mapspace.EyerissRowStationary(layer.Work)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := heuristic.Construct(ev, mapspace.RubyS, cons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneticSearch measures the GA on the toy problem: 312
// evaluations per op (the initial population, then generations evaluated
// as engine batches until the budget); ns/eval is the per-evaluation cost.
func BenchmarkGeneticSearch(b *testing.B) {
	b.ReportAllocs()
	w := workloads.Rank1(100)
	a := arch.ToyGLB(6, 512)
	eng := engine.New(nest.MustEvaluator(w, a))
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	var evals int64
	for i := 0; i < b.N; i++ {
		evals += search.Genetic(context.Background(), sp, eng, search.Options{Seed: int64(i), MaxEvaluations: 312}).Evaluated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
}

// BenchmarkAnnealSearch measures simulated annealing on the toy problem:
// 1050 evaluations per op (50 warm-up samples, then 1000 annealing steps);
// ns/eval is the per-evaluation cost.
func BenchmarkAnnealSearch(b *testing.B) {
	b.ReportAllocs()
	w := workloads.Rank1(100)
	a := arch.ToyGLB(6, 512)
	eng := engine.New(nest.MustEvaluator(w, a))
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	var evals int64
	for i := 0; i < b.N; i++ {
		evals += search.Anneal(context.Background(), sp, eng, search.Options{Seed: int64(i), MaxEvaluations: 1050, Warmup: 50}).Evaluated
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
}

// BenchmarkAttribute measures one cost-attribution refill from a seeded
// delta-evaluation session — the feedback signal the model-guided searcher
// ranks its moves by. It replays the session's committed contribution
// records into a preallocated Breakdown, so the gate holds it to zero
// allocations alongside the evaluation kernels.
func BenchmarkAttribute(b *testing.B) {
	b.ReportAllocs()
	layer := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(layer.Work, a)
	sp := mapspace.New(layer.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(layer.Work))
	rng := rand.New(rand.NewSource(1))
	var m *mapping.Mapping
	for i := 0; i < 10000 && m == nil; i++ {
		if s := sp.Sample(rng); ev.Evaluate(s).Valid {
			m = s
		}
	}
	if m == nil {
		b.Fatal("no valid mapping sampled")
	}
	plan := ev.Plan()
	dm, err := m.Dense(sp.Work, sp.Arch, sp.Slots())
	if err != nil {
		b.Fatal(err)
	}
	de := plan.NewDeltaEval()
	if c := de.Seed(dm); !c.Valid {
		b.Fatalf("seed invalid: %s", c.Reason)
	}
	bd := plan.NewBreakdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Attribute(de, bd)
	}
}

// BenchmarkGuidedConverge runs the model-guided mapper end to end on a
// pinned matmul/Eyeriss space and reports, besides wall time, how many
// evaluations it needed to get within 1% of the best mapping it eventually
// found. The count is deterministic for a fixed seed, so `make bench-gate`
// treats a >20% growth in convergence_evals as a CI failure.
func BenchmarkGuidedConverge(b *testing.B) {
	b.ReportAllocs()
	w := workload.MustMatmul("mm", 8, 12, 18)
	a := arch.EyerissLike(14, 12, 128)
	ev := nest.MustEvaluator(w, a)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	var conv float64
	for i := 0; i < b.N; i++ {
		res := search.Guided(context.Background(), sp, engine.New(ev),
			search.Options{Seed: 1, MaxEvaluations: 5000})
		if res.Best == nil {
			b.Fatal("guided found no valid mapping")
		}
		conv = float64(res.Evaluated)
		for _, tp := range res.Trace {
			if tp.Value <= res.BestCost.EDP*1.01 {
				conv = float64(tp.Evals)
				break
			}
		}
	}
	b.ReportMetric(conv, "convergence_evals")
}
