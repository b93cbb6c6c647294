package search

import (
	"context"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

func TestGeneticConvergesOnToy(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Genetic(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: 1264})
	if res.Best == nil {
		t.Fatal("no valid mapping")
	}
	if res.BestCost.Cycles != 17 {
		t.Errorf("genetic Ruby-S cycles = %f, want 17", res.BestCost.Cycles)
	}
	if res.Evaluated == 0 || res.Valid == 0 {
		t.Error("counters empty")
	}
}

func TestGeneticCompetitiveWithRandom(t *testing.T) {
	w := workload.MustMatmul("mm", 96, 96, 96)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.EyerissRowStationary(w))
	ev := nest.MustEvaluator(w, a)

	gen := Genetic(context.Background(), sp, engine.New(ev), Options{Seed: 2, MaxEvaluations: 3664})
	if gen.Best == nil {
		t.Fatal("genetic found nothing")
	}
	rnd := Random(context.Background(), sp, engine.New(ev), Options{Seed: 2, Threads: 1, MaxEvaluations: gen.Evaluated})
	if rnd.Best == nil {
		t.Fatal("random found nothing")
	}
	// With equal budgets the GA should be within 2x of random (usually it
	// wins; the loose bound keeps the test robust to seeds).
	if gen.BestCost.EDP > 2*rnd.BestCost.EDP {
		t.Errorf("genetic EDP %g much worse than random %g at %d evals",
			gen.BestCost.EDP, rnd.BestCost.EDP, gen.Evaluated)
	}
	t.Logf("genetic %g vs random %g (%d evals)", gen.BestCost.EDP, rnd.BestCost.EDP, gen.Evaluated)
}

func TestGeneticDeterministic(t *testing.T) {
	sp, ev := toy(mapspace.Ruby)
	opt := Options{Seed: 5, Threads: 1, MaxEvaluations: 364}
	a := Genetic(context.Background(), sp, engine.New(ev), opt)
	opt.Threads = 4
	b := Genetic(context.Background(), sp, engine.New(ev), opt)
	sameResult(t, "genetic", b, a)
}

// TestGeneticOptionDefaults: the first Step samples a geneticPopulation
// population, each later Step breeds all but the elites, and the last one
// stops at exactly MaxEvaluations.
func TestGeneticOptionDefaults(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	s := NewGenetic(sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: 200})
	breed := int64(geneticPopulation - geneticElites)
	want := []int64{geneticPopulation, geneticPopulation + breed, geneticPopulation + 2*breed, 200}
	for i, w := range want {
		done, err := s.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Result().Evaluated; got != w {
			t.Errorf("after step %d: evaluated %d, want %d", i+1, got, w)
		}
		if done != (i == len(want)-1) {
			t.Errorf("after step %d: done = %v", i+1, done)
		}
	}
}

// A run without an evaluation cap stops on the random searcher's rule:
// ConsecutiveNoImprove valid children in a row without improvement. Every
// toy Ruby-S mapping is valid, so that is exactly 500 evaluations after the
// last improvement.
func TestGeneticStopsOnNoImprove(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Genetic(context.Background(), sp, engine.New(ev), Options{Seed: 1, ConsecutiveNoImprove: 500})
	if res.Best == nil || res.Valid != res.Evaluated {
		t.Fatalf("%d of %d evaluations valid, want all", res.Valid, res.Evaluated)
	}
	if since := res.Evaluated - res.Trace[len(res.Trace)-1].Evals; since != 500 {
		t.Errorf("stopped %d evaluations after the last improvement, want 500", since)
	}
}

func TestGeneticTraceMonotone(t *testing.T) {
	sp, ev := toy(mapspace.RubyT)
	res := Genetic(context.Background(), sp, engine.New(ev), Options{Seed: 3, MaxEvaluations: 664})
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Value >= res.Trace[i-1].Value || res.Trace[i].Evals < res.Trace[i-1].Evals {
			t.Fatalf("trace not monotone: %+v", res.Trace)
		}
	}
}
