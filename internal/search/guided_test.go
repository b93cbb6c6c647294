package search

import (
	"context"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// guidedPin is one (architecture, layer, seed) case whose mapspace is small
// enough to enumerate exhaustively, used as ground truth for the guided
// searcher. The three archetypes stress different couplings: the Eyeriss row
// stationary array, the TPU-style systolic array whose fanout the optimum
// splits between two dims, and the two-tier Eyeriss v2 cluster hierarchy.
type guidedPin struct {
	name string
	w    *workload.Workload
	a    *arch.Arch
	seed int64
}

func guidedPins() []guidedPin {
	return []guidedPin{
		{"eyeriss/mm-8-12-18", workload.MustMatmul("mm", 8, 12, 18), arch.EyerissLike(14, 12, 128), 1},
		{"tpu/mm-8-24-10", workload.MustMatmul("mm", 8, 24, 10), arch.TPULike(8, 8, 256), 1},
		{"eyerissv2/mm-8-24-10", workload.MustMatmul("mm", 8, 24, 10), arch.EyerissV2Like(4, 4, 64), 3},
	}
}

// TestGuidedMatchesExhaustive asserts that on every pinned mapspace small
// enough for exhaustive enumeration the guided searcher reaches the exact
// exhaustive optimum, and does so within 1% of the exhaustive evaluation
// count (the issue's convergence budget).
func TestGuidedMatchesExhaustive(t *testing.T) {
	for _, tc := range guidedPins() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
			ev := nest.MustEvaluator(tc.w, tc.a)
			ex := Exhaustive(context.Background(), sp, engine.New(ev), Options{Threads: 4}, 0)
			if ex.Best == nil {
				t.Fatal("exhaustive found no valid mapping")
			}
			g := Guided(context.Background(), sp, engine.New(ev), Options{Seed: tc.seed})
			if g.Best == nil {
				t.Fatal("guided found no valid mapping")
			}
			exV := ObjectiveEDP.Value(&ex.BestCost)
			gV := ObjectiveEDP.Value(&g.BestCost)
			if gV != exV {
				t.Errorf("guided EDP %v != exhaustive optimum %v (gap %.4g%%)", gV, exV, 100*(gV-exV)/exV)
			}
			if g.Evaluated*100 > ex.Evaluated {
				t.Errorf("guided spent %d evaluations, over 1%% of exhaustive's %d", g.Evaluated, ex.Evaluated)
			}
		})
	}
}

// TestGuidedBeatsStochasticAtBudget asserts the guided searcher matches or
// beats every stochastic searcher's EDP when all are capped at the same
// 10k-evaluation budget.
func TestGuidedBeatsStochasticAtBudget(t *testing.T) {
	const budget = 10000
	w := workload.MustMatmul("mm", 8, 12, 18)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)

	g := Guided(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget})
	if g.Best == nil {
		t.Fatal("guided found no valid mapping")
	}
	gV := ObjectiveEDP.Value(&g.BestCost)

	rivals := map[string]*Result{
		"random": Random(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget}),
		"hillclimb": HillClimb(context.Background(), sp, engine.New(ev),
			Options{Seed: 1, MaxEvaluations: budget, Warmup: 1000, Patience: 2000}),
		"anneal":  Anneal(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget}),
		"genetic": Genetic(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: budget}),
	}
	for name, r := range rivals {
		if r.Best == nil {
			continue
		}
		if v := ObjectiveEDP.Value(&r.BestCost); v < gV {
			t.Errorf("%s EDP %v beats guided %v at a %d-eval budget", name, v, gV, budget)
		}
	}
}

// TestGuidedInnerLoopAllocFree pins the zero-allocation contract of the
// guided scan's candidate evaluation (the hot path: propose, delta-evaluate,
// roll back). The sweep-level scratch is preallocated at construction; a
// regression here shows up as allocations per candidate.
func TestGuidedInnerLoopAllocFree(t *testing.T) {
	w := workload.MustMatmul("mm", 8, 12, 18)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)
	eng := engine.New(ev)
	s := NewGuided(sp, eng, Options{Seed: 1, MaxEvaluations: 100000})

	// Drive the searcher into the sweep phase with a seeded delta session.
	for s.phase != guidedPhaseSweep {
		if done, err := s.Step(context.Background()); done || err != nil {
			t.Fatalf("searcher ended before reaching the sweep phase (done=%v err=%v)", done, err)
		}
	}
	if s.cur == nil {
		s.cur = s.res.Best.Clone()
		if c := s.dw.Seed(s.cur); !c.Valid {
			t.Fatal("working mapping does not validate")
		}
	}

	met := eng.Metrics()
	chains := s.exactChains[0]
	if len(chains) < 2 {
		t.Fatal("expected a precomputed chain list for dim 0")
	}
	// best=0 keeps every candidate non-improving (EDP is positive), so the
	// measured path is propose + delta-evaluate + reject + undo only.
	best := 0.0
	ci := 0
	allocs := testing.AllocsPerRun(200, func() {
		if sameChain(chains[ci], s.cur.Factors[s.dimNames[0]]) {
			ci = (ci + 1) % len(chains)
		}
		var pre checkpoint.RNG
		mv := s.mut.ProposeChainSet(0, chains[ci])
		s.tryCandidate(mv, guidedKindChainExact, 0, ci, pre, &best, met)
		ci = (ci + 1) % len(chains)
	})
	if allocs != 0 {
		t.Errorf("guided candidate evaluation allocates %v times per op; want 0", allocs)
	}
}
