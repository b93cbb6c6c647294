package search

import (
	"context"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workloads"
)

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

// Every member is capped at its share of the budget, so the portfolio as a
// whole never spends more than MaxEvaluations: on the toy, and on two
// ResNet-50 layers under the Eyeriss row-stationary dataflow.
func TestPortfolioStaysInBudget(t *testing.T) {
	spaces := map[string]*mapspace.Space{}
	spaces["toy"], _ = toy(mapspace.RubyS)
	a := arch.EyerissLike(14, 12, 128)
	rn := workloads.ResNet50()
	for _, l := range []workloads.Layer{rn[1], rn[3]} {
		for _, k := range []mapspace.Kind{mapspace.PFM, mapspace.RubyS} {
			spaces[l.Name+"/"+k.String()] = mapspace.New(l.Work, a, k, mapspace.EyerissRowStationary(l.Work))
		}
	}
	for name, sp := range spaces {
		for _, budget := range []int64{4000, 4003} {
			eng := engine.New(nest.MustEvaluator(sp.Work, sp.Arch))
			res := Portfolio(context.Background(), sp, eng, Options{Seed: 1, Threads: 2, MaxEvaluations: budget})
			if res.Evaluated > budget {
				t.Errorf("%s: portfolio spent %d evaluations of a %d budget", name, res.Evaluated, budget)
			}
		}
	}
}
