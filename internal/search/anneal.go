package search

import (
	"context"
	"math"
	"math/rand"

	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// AnnealOptions configures the simulated-annealing searcher.
type AnnealOptions struct {
	// Seed makes the run reproducible.
	Seed int64
	// Steps is the number of annealing moves (default 20,000).
	Steps int
	// StartTemp is the initial acceptance temperature as a fraction of the
	// incumbent objective value (default 0.5): a move that worsens the
	// objective by StartTemp x incumbent is accepted with probability 1/e
	// at the start of the schedule.
	StartTemp float64
	// Warmup random samples seed the incumbent (default 200).
	Warmup int
	// Objective selects the minimized metric (default EDP).
	Objective Objective
}

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Steps <= 0 {
		o.Steps = 20000
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 0.5
	}
	if o.Warmup <= 0 {
		o.Warmup = 200
	}
	return o
}

// Anneal runs simulated annealing over a mapspace: the proposal distribution
// mutates one dimension's tiling chain or one level's loop order (the hill
// climber's moves), and worsening moves are accepted with Boltzmann
// probability under a geometrically cooled temperature. Annealing escapes
// the local optima that trap greedy search in the large Ruby mapspaces.
//
// The annealing loop runs on the incremental pipeline: Moves mutate the
// incumbent in place (rejections are undone exactly) and candidates are
// scored by the bit-identical delta kernel, so trajectories and results
// match the historical clone-and-reevaluate implementation draw for draw.
// ctx is checked before every warmup sample and annealing step; on
// cancellation Anneal returns the best mapping found so far.
func Anneal(ctx context.Context, sp *mapspace.Space, ev *nest.Evaluator, opt AnnealOptions) *Result {
	opt = opt.withDefaults()
	if sp.Work != ev.Work || sp.Arch != ev.Arch {
		panic("search: mapspace and evaluator must share workload and architecture objects for incremental evaluation")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{}

	// Warmup: best random sample becomes the incumbent.
	var cur *annealState
	for i := 0; i < opt.Warmup; i++ {
		if ctxErr(ctx) != nil {
			return res
		}
		res.Evaluated++
		m := sp.Sample(rng)
		c := ev.Evaluate(m)
		if !c.Valid {
			continue
		}
		res.Valid++
		v := opt.Objective.Value(&c)
		if res.Best == nil || v < opt.Objective.Value(&res.BestCost) {
			res.Best, res.BestCost = m.Clone(), c
			res.Trace = append(res.Trace, TracePoint{Evals: res.Evaluated, Value: v})
		}
		if cur == nil || v < cur.value {
			cur = &annealState{m: m, value: v}
		}
	}
	if cur == nil {
		return res
	}

	// The incumbent is mutated in place from here on; it is the loop's sole
	// owner (res.Best is always a clone). Seed the delta session with its
	// lowering — uncounted, since the incumbent was already evaluated above.
	plan := ev.Plan()
	mut := sp.NewMutator()
	de := plan.NewDeltaEval()
	dm, err := cur.m.Dense(sp.Work, sp.Arch, sp.Slots())
	if err != nil {
		return res // unreachable: the incumbent evaluated valid
	}
	de.Seed(dm)

	t0 := opt.StartTemp * cur.value
	cooling := math.Pow(1e-3, 1/float64(opt.Steps)) // t0 -> t0/1000 over the run
	temp := t0
	for step := 0; step < opt.Steps && ctxErr(ctx) == nil; step++ {
		mv := mut.Propose(rng)
		mv.Apply(cur.m)
		res.Evaluated++
		c := plan.EvaluateDelta(de, mv.Delta())
		temp *= cooling
		if !c.Valid {
			de.Reject()
			mv.Undo(cur.m)
			continue
		}
		res.Valid++
		v := opt.Objective.Value(&c)
		if v < opt.Objective.Value(&res.BestCost) {
			// Any improvement on the global best also improves the incumbent
			// (best <= incumbent), so the move below is always accepted and
			// the clone captures the candidate state.
			res.Best, res.BestCost = cur.m.Clone(), c.Clone()
			res.Trace = append(res.Trace, TracePoint{Evals: res.Evaluated, Value: v})
		}
		delta := v - cur.value
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			de.Commit()
			cur.value = v
		} else {
			de.Reject()
			mv.Undo(cur.m)
		}
	}
	return res
}

type annealState struct {
	m     *mapping.Mapping
	value float64
}
