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
	res := Genetic(context.Background(), sp, ev, GeneticOptions{Seed: 1, Population: 32, Generations: 20})
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

	gen := Genetic(context.Background(), sp, ev, GeneticOptions{Seed: 2, Population: 64, Generations: 60})
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
	a := Genetic(context.Background(), sp, ev, GeneticOptions{Seed: 5, Population: 16, Generations: 5})
	b := Genetic(context.Background(), sp, ev, GeneticOptions{Seed: 5, Population: 16, Generations: 5})
	if a.BestCost.EDP != b.BestCost.EDP || a.Evaluated != b.Evaluated {
		t.Error("same seed diverged")
	}
}

func TestGeneticOptionDefaults(t *testing.T) {
	o := GeneticOptions{}.withDefaults()
	if o.Population != 64 || o.Generations != 40 || o.Elites != 4 {
		t.Errorf("defaults = %+v", o)
	}
	small := GeneticOptions{Population: 4}.withDefaults()
	if small.Elites > 2 {
		t.Errorf("elites %d exceed half the population", small.Elites)
	}
}

func TestGeneticTraceMonotone(t *testing.T) {
	sp, ev := toy(mapspace.RubyT)
	res := Genetic(context.Background(), sp, ev, GeneticOptions{Seed: 3, Population: 16, Generations: 10})
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Value >= res.Trace[i-1].Value || res.Trace[i].Evals < res.Trace[i-1].Evals {
			t.Fatalf("trace not monotone: %+v", res.Trace)
		}
	}
}
