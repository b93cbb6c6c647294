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

func TestAnnealConvergesOnToy(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Anneal(context.Background(), sp, ev, AnnealOptions{Seed: 1, Steps: 3000, Warmup: 100})
	if res.Best == nil {
		t.Fatal("no valid mapping")
	}
	if res.BestCost.Cycles != 17 {
		t.Errorf("anneal cycles = %f, want 17", res.BestCost.Cycles)
	}
}

func TestAnnealCompetitiveWithRandom(t *testing.T) {
	w := workload.MustMatmul("mm", 96, 96, 96)
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(w, a, mapspace.RubyS, mapspace.EyerissRowStationary(w))
	ev := nest.MustEvaluator(w, a)
	ann := Anneal(context.Background(), sp, ev, AnnealOptions{Seed: 2, Steps: 4000, Warmup: 200})
	if ann.Best == nil {
		t.Fatal("anneal found nothing")
	}
	rnd := Random(context.Background(), sp, engine.New(ev), Options{Seed: 2, Threads: 1, MaxEvaluations: ann.Evaluated})
	if rnd.Best != nil && ann.BestCost.EDP > 2*rnd.BestCost.EDP {
		t.Errorf("anneal EDP %g far worse than random %g", ann.BestCost.EDP, rnd.BestCost.EDP)
	}
	t.Logf("anneal %g vs random %g (%d evals)", ann.BestCost.EDP, rnd.BestCost.EDP, ann.Evaluated)
}

func TestAnnealDeterministic(t *testing.T) {
	sp, ev := toy(mapspace.Ruby)
	a := Anneal(context.Background(), sp, ev, AnnealOptions{Seed: 3, Steps: 500, Warmup: 50})
	b := Anneal(context.Background(), sp, ev, AnnealOptions{Seed: 3, Steps: 500, Warmup: 50})
	if a.BestCost.EDP != b.BestCost.EDP || a.Evaluated != b.Evaluated {
		t.Error("same seed diverged")
	}
}

func TestAnnealNoValidWarmup(t *testing.T) {
	w := workload.MustVector1D("toy", 7)
	a := arch.ToyGLB(7, 1)
	sp := mapspace.New(w, a, mapspace.Ruby, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)
	res := Anneal(context.Background(), sp, ev, AnnealOptions{Seed: 4, Steps: 100, Warmup: 50})
	if res.Best != nil {
		t.Error("found a mapping where none can be valid")
	}
}

func TestAnnealOptionDefaults(t *testing.T) {
	o := AnnealOptions{}.withDefaults()
	if o.Steps != 20000 || o.StartTemp != 0.5 || o.Warmup != 200 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestPortfolio(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Portfolio(context.Background(), sp, engine.New(ev), Options{Seed: 1, Threads: 2, MaxEvaluations: 4000})
	if res.Best == nil {
		t.Fatal("portfolio found nothing")
	}
	if res.BestCost.Cycles != 17 {
		t.Errorf("portfolio cycles = %f, want 17", res.BestCost.Cycles)
	}
	if res.Evaluated <= 0 || res.Valid <= 0 {
		t.Error("portfolio counters empty")
	}
}

func TestPortfolioObjective(t *testing.T) {
	sp, ev := toy(mapspace.Ruby)
	res := Portfolio(context.Background(), sp, engine.New(ev), Options{Seed: 2, Threads: 1, MaxEvaluations: 2000, Objective: ObjectiveDelay})
	if res.Best == nil || res.BestCost.Cycles > 17 {
		t.Errorf("delay portfolio: %+v", res.BestCost)
	}
}
