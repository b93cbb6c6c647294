package search

import (
	"context"
	"math"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

func TestAnnealConvergesOnToy(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Anneal(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: 3100, Warmup: 100})
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
	ann := Anneal(context.Background(), sp, engine.New(ev), Options{Seed: 2, MaxEvaluations: 4200, Warmup: 200})
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
	opt := Options{Seed: 3, MaxEvaluations: 550, Warmup: 50}
	a := Anneal(context.Background(), sp, engine.New(ev), opt)
	b := Anneal(context.Background(), sp, engine.New(ev), opt)
	sameResult(t, "anneal", a, b)
}

func TestAnnealNoValidWarmup(t *testing.T) {
	w := workload.MustVector1D("toy", 7)
	a := arch.ToyGLB(7, 1)
	sp := mapspace.New(w, a, mapspace.Ruby, mapspace.Constraints{FixedPerms: true})
	ev := nest.MustEvaluator(w, a)
	res := Anneal(context.Background(), sp, engine.New(ev), Options{Seed: 4, MaxEvaluations: 150, Warmup: 50})
	if res.Best != nil {
		t.Error("found a mapping where none can be valid")
	}
}

// TestAnnealOptionDefaults: without an evaluation cap, the annealer spends
// the default warm-up plus annealSteps steps, cooling to 1/1000 of its
// start temperature over the steps.
func TestAnnealOptionDefaults(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	s := NewAnneal(sp, engine.New(ev), Options{Seed: 1})
	res := runToCompletion(t, s)
	if want := int64(defaultWarmup + annealSteps); res.Evaluated != want {
		t.Errorf("evaluated %d, want %d", res.Evaluated, want)
	}
	warm, ok := res.BestEDPAt(defaultWarmup)
	if !ok {
		t.Fatal("warm-up found no valid mapping")
	}
	if r := s.temp / (annealStartTemp * warm); math.Abs(r-1e-3) > 1e-12 {
		t.Errorf("final temperature is %g of the start temperature, want 1e-3", r)
	}
}
