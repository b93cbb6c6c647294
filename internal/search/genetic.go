package search

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// GeneticOptions configures the genetic-algorithm searcher, a GAMMA-style
// strategy demonstrating that Ruby mapspaces compose with search techniques
// beyond random sampling (Section II-A: "our proposed mapspace generation
// framework is orthogonal to these search strategies").
type GeneticOptions struct {
	// Seed makes the run reproducible.
	Seed int64
	// Population is the number of individuals per generation (default 64).
	Population int
	// Generations caps evolution (default 40).
	Generations int
	// MutationRate is the per-dimension chain-resample probability
	// (default 0.15); permutations mutate at half this rate.
	MutationRate float64
	// Elites survive unchanged each generation (default 4).
	Elites int
	// Objective selects the minimized metric (default EDP).
	Objective Objective
}

func (o GeneticOptions) withDefaults() GeneticOptions {
	if o.Population <= 0 {
		o.Population = 64
	}
	if o.Generations <= 0 {
		o.Generations = 40
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.15
	}
	if o.Elites <= 0 {
		o.Elites = 4
	}
	if o.Elites > o.Population/2 {
		o.Elites = o.Population / 2
	}
	return o
}

type individual struct {
	m   *mapping.Mapping
	edp float64 // +Inf when invalid
}

// Genetic evolves a population of mappings: tournament selection, per-
// dimension uniform crossover of tiling chains, per-level permutation
// inheritance, and mutation by chain resampling. Fitness is EDP; invalid
// mappings score +Inf but may still recombine out of trouble. ctx is
// checked before the initial population and before every generation; on
// cancellation Genetic returns the best mapping found so far.
func Genetic(ctx context.Context, sp *mapspace.Space, ev *nest.Evaluator, opt GeneticOptions) *Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{}
	dims := sp.Work.DimNames()
	if ctxErr(ctx) != nil {
		return res
	}

	score := func(m *mapping.Mapping) individual {
		res.Evaluated++
		c := ev.Evaluate(m)
		if !c.Valid {
			return individual{m: m, edp: math.Inf(1)}
		}
		res.Valid++
		v := opt.Objective.Value(&c)
		if res.Best == nil || v < opt.Objective.Value(&res.BestCost) {
			res.Best, res.BestCost = m.Clone(), c
			res.Trace = append(res.Trace, TracePoint{Evals: res.Evaluated, Value: v})
		}
		return individual{m: m, edp: v}
	}

	mut := sp.NewMutator()
	pop := make([]individual, opt.Population)
	for i := range pop {
		pop[i] = score(sp.Sample(rng))
	}

	tournament := func() individual {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if a.edp <= b.edp {
			return a
		}
		return b
	}

	for g := 0; g < opt.Generations && ctxErr(ctx) == nil; g++ {
		sort.Slice(pop, func(i, j int) bool { return pop[i].edp < pop[j].edp })
		next := make([]individual, 0, opt.Population)
		next = append(next, pop[:opt.Elites]...)
		for len(next) < opt.Population {
			pa, pb := tournament(), tournament()
			child := crossover(rng, dims, pa.m, pb.m)
			mutate(rng, mut, child, opt.MutationRate)
			next = append(next, score(child))
		}
		pop = next
	}
	return res
}

// crossover builds a child inheriting each dimension's tiling chain from a
// random parent and each level's loop order likewise.
func crossover(rng *rand.Rand, dims []string, a, b *mapping.Mapping) *mapping.Mapping {
	child := a.Clone()
	for _, d := range dims {
		if rng.Intn(2) == 1 {
			child.Factors[d] = append([]int(nil), b.Factors[d]...)
		}
	}
	for li := range child.Perms {
		if rng.Intn(2) == 1 {
			child.Perms[li] = append([]string(nil), b.Perms[li]...)
		}
	}
	return child
}

// mutate resamples chains and shuffles loop orders in place through the
// mutator's Move machinery (applied permanently, never undone — genetic
// mutation is one-way). The rng draw sequence matches the historical
// SampleChain/SamplePerm implementation exactly, so seeded runs reproduce
// their trajectories; the Moves additionally reuse the mutator's scratch
// instead of allocating fresh chains and permutations per mutation.
func mutate(rng *rand.Rand, mut *mapspace.Mutator, m *mapping.Mapping, rate float64) {
	for di := 0; di < mut.NumDims(); di++ {
		if rng.Float64() < rate {
			mut.ProposeChainID(rng, di).Apply(m)
		}
	}
	for li := range m.Perms {
		if rng.Float64() < rate/2 {
			mut.ProposePerm(rng, li).Apply(m)
		}
	}
}
