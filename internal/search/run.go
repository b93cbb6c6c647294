package search

import (
	"cmp"
	"context"
	"fmt"
	"strings"

	"ruby/internal/engine"
	"ruby/internal/mapspace"
)

// Algorithms lists the algorithm names Run accepts, in presentation order.
var Algorithms = []string{
	"random", "guided", "hillclimb", "anneal", "genetic", "portfolio", "exhaustive",
}

// ResumableAlgorithms lists the algorithm names NewSearcherFor accepts —
// the searchers implementing the resumable Step/Snapshot/Restore contract:
// every algorithm but the portfolio, which runs its members one-shot.
var ResumableAlgorithms = []string{"random", "guided", "hillclimb", "anneal", "genetic", "exhaustive"}

// Run dispatches a one-shot search by algorithm name. The empty name selects
// random sampling (the paper's baseline procedure). Unknown names are an
// error, so callers can pass flag and request strings straight through.
// Exhaustive search enumerates at most opt.MaxEvaluations mappings.
func Run(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, algo string, opt Options) (*Result, error) {
	if algo == "portfolio" {
		return Portfolio(ctx, sp, eng, opt), nil
	}
	s, err := NewSearcherFor(algo, sp, eng, opt, opt.MaxEvaluations)
	if err != nil {
		return nil, fmt.Errorf("search: unknown algorithm %q", algo)
	}
	return stepToDone(ctx, "search:"+cmp.Or(algo, "random"), s), nil
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
	case "anneal":
		return NewAnneal(sp, eng, opt), nil
	case "genetic":
		return NewGenetic(sp, eng, opt), nil
	case "exhaustive":
		return NewExhaustive(sp, eng, opt, maxEnum), nil
	default:
		return nil, fmt.Errorf("search: algorithm %q is not resumable (want one of %s)",
			algo, strings.Join(ResumableAlgorithms, "|"))
	}
}
