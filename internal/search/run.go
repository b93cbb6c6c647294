package search

import (
	"context"
	"fmt"

	"ruby/internal/engine"
	"ruby/internal/mapspace"
)

// Algorithms lists the algorithm names Run accepts, in presentation order.
var Algorithms = []string{
	"random", "guided", "hillclimb", "anneal", "genetic", "portfolio", "exhaustive",
}

// ResumableAlgorithms lists the algorithm names NewSearcherFor accepts —
// the searchers implementing the resumable Step/Snapshot/Restore contract.
var ResumableAlgorithms = []string{"random", "guided", "hillclimb", "exhaustive"}

// Run dispatches a one-shot search by algorithm name. The empty name selects
// random sampling (the paper's baseline procedure). For the searchers with
// their own option structs (anneal, genetic), opt.MaxEvaluations is
// translated into an equivalent step or generation budget, matching the
// portfolio's accounting. Unknown names are an error, so callers can pass
// flag and request strings straight through.
func Run(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, algo string, opt Options) (*Result, error) {
	switch algo {
	case "", "random":
		return Random(ctx, sp, eng, opt), nil
	case "guided":
		return Guided(ctx, sp, eng, opt), nil
	case "hillclimb":
		return HillClimb(ctx, sp, eng, opt), nil
	case "exhaustive":
		return Exhaustive(ctx, sp, eng, opt, opt.MaxEvaluations), nil
	case "anneal":
		ao := AnnealOptions{Seed: opt.Seed, Objective: opt.Objective}
		if opt.MaxEvaluations > 0 {
			warm := int(opt.MaxEvaluations) / 10
			ao.Warmup, ao.Steps = warm, int(opt.MaxEvaluations)-warm
		}
		return Anneal(ctx, sp, eng.Evaluator(), ao), nil
	case "genetic":
		gopt := GeneticOptions{Seed: opt.Seed, Objective: opt.Objective}
		if opt.MaxEvaluations > 0 {
			gopt.Population = 64
			if gens := int(opt.MaxEvaluations)/gopt.Population - 1; gens >= 1 {
				gopt.Generations = gens
			} else {
				gopt.Generations = 1
			}
		}
		return Genetic(ctx, sp, eng.Evaluator(), gopt), nil
	case "portfolio":
		return Portfolio(ctx, sp, eng, opt), nil
	default:
		return nil, fmt.Errorf("search: unknown algorithm %q", algo)
	}
}

// NewSearcherFor builds a resumable searcher by algorithm name (the empty
// name selects random sampling). maxEnum caps the exhaustive enumeration (0 =
// the whole space) and is ignored by the other algorithms.
func NewSearcherFor(algo string, sp *mapspace.Space, eng *engine.Engine, opt Options, maxEnum int64) (Searcher, error) {
	switch algo {
	case "", "random":
		return NewRandom(sp, eng, opt), nil
	case "guided":
		return NewGuided(sp, eng, opt), nil
	case "hillclimb":
		return NewHillClimb(sp, eng, opt), nil
	case "exhaustive":
		return NewExhaustive(sp, eng, opt, maxEnum), nil
	default:
		return nil, fmt.Errorf("search: algorithm %q is not resumable (want one of random|guided|hillclimb|exhaustive)", algo)
	}
}
