package search

import (
	"context"

	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/obs"
)

// Portfolio runs the full searcher portfolio — random sampling, the genetic
// algorithm, simulated annealing, greedy hill climbing and the model-guided
// mapper — splitting an evaluation budget across them and returning the
// overall best. Different strategies win on different mapspace shapes
// (random on dense toy spaces, population methods on the sparse Ruby
// expansions, guided on anything with exploitable cost structure), so the
// portfolio is a robust default when the shape is unknown. The member that
// produced the incumbent is reported as an obs event
// ("portfolio:winner:<member>") and through engine.PortfolioMetrics when the
// engine's metrics sink implements it. Every member honors ctx, so a
// cancelled portfolio still returns its best-so-far quickly.
func Portfolio(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	opt = opt.withDefaults()
	ctx, span := obs.StartSpan(ctx, "search:portfolio")
	defer span.End()
	budget := opt.MaxEvaluations
	if budget <= 0 {
		budget = 40000
	}
	share := budget / 5

	type member struct {
		name string
		res  *Result
	}
	members := make([]member, 0, 5)

	randOpt := opt
	randOpt.MaxEvaluations = share
	randOpt.ConsecutiveNoImprove = 0
	members = append(members, member{"random", Random(ctx, sp, eng, randOpt)})

	pop := 64
	gens := int(share)/pop - 1
	if gens < 1 {
		gens = 1
	}
	members = append(members, member{"genetic", Genetic(ctx, sp, eng.Evaluator(), GeneticOptions{
		Seed: opt.Seed + 1, Population: pop, Generations: gens, Objective: opt.Objective,
	})})

	warm := int(share) / 10
	members = append(members, member{"anneal", Anneal(ctx, sp, eng.Evaluator(), AnnealOptions{
		Seed: opt.Seed + 2, Steps: int(share) - warm, Warmup: warm, Objective: opt.Objective,
	})})

	members = append(members, member{"hillclimb", HillClimb(ctx, sp, eng, Options{
		Seed: opt.Seed + 3, Objective: opt.Objective,
		Warmup: warm, Patience: int(share) - warm,
	})})

	members = append(members, member{"guided", Guided(ctx, sp, eng, Options{
		Seed: opt.Seed + 4, Objective: opt.Objective,
		MaxEvaluations: share, WarmStart: opt.WarmStart,
	})})

	best := &Result{}
	winner := ""
	for _, mb := range members {
		r := mb.res
		best.Evaluated += r.Evaluated
		best.Valid += r.Valid
		if r.Best != nil && (best.Best == nil ||
			opt.Objective.Value(&r.BestCost) < opt.Objective.Value(&best.BestCost)) {
			best.Best = r.Best
			best.BestCost = r.BestCost
			winner = mb.name
		}
	}
	if winner != "" {
		obs.Event(ctx, "portfolio:winner:"+winner)
		if pm, ok := eng.Metrics().(engine.PortfolioMetrics); ok {
			pm.PortfolioWin(winner)
		}
	}
	return best
}
