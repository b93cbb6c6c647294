package search

import (
	"context"

	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/obs"
)

// portfolioMembers lists the portfolio's searchers in run order; member i
// searches with seed opt.Seed + i.
var portfolioMembers = []struct {
	name string
	run  func(context.Context, *mapspace.Space, *engine.Engine, Options) *Result
}{
	{"random", Random}, {"genetic", Genetic}, {"anneal", Anneal},
	{"hillclimb", HillClimb}, {"guided", Guided},
}

// Portfolio runs the full searcher portfolio — random sampling, the genetic
// algorithm, simulated annealing, greedy hill climbing and the model-guided
// mapper — splitting an evaluation budget evenly across them and returning
// the overall best; every member is capped at its share, so the portfolio
// never spends more than opt.MaxEvaluations (default 40,000). Different
// strategies win on different mapspace shapes (random on dense toy spaces,
// population methods on the sparse Ruby expansions, guided on anything with
// exploitable cost structure), so the portfolio is a robust default when
// the shape is unknown. The member that produced the incumbent is reported
// as an obs event ("portfolio:winner:<member>") and through
// engine.PortfolioMetrics when the engine's metrics sink implements it.
// Every member honors ctx, so a cancelled portfolio still returns its
// best-so-far quickly.
func Portfolio(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	opt = opt.withDefaults()
	ctx, span := obs.StartSpan(ctx, "search:portfolio")
	defer span.End()
	budget := opt.MaxEvaluations
	if budget <= 0 {
		budget = 40000
	}

	best := &Result{}
	winner := ""
	for i, mb := range portfolioMembers {
		// The first budget%5 members take one evaluation more than the
		// rest; a member whose share is zero does not run.
		share := budget / int64(len(portfolioMembers))
		if int64(i) < budget%int64(len(portfolioMembers)) {
			share++
		}
		if share == 0 {
			continue
		}
		// The hill climb's patience is its whole share: only the cap
		// stops it.
		mo := Options{
			Seed: opt.Seed + int64(i), Threads: opt.Threads, Objective: opt.Objective,
			MaxEvaluations: share, Patience: int(share),
		}
		switch mb.name {
		case "random":
			mo.KeepTrace, mo.WarmStart = opt.KeepTrace, opt.WarmStart
		case "guided":
			mo.WarmStart = opt.WarmStart
		}
		r := mb.run(ctx, sp, eng, mo)
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
