package search

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// Genetic-algorithm shape. These are constants, not Options: the searcher
// demonstrates that Ruby mapspaces compose with population search
// (Section II-A: the mapspace "is orthogonal to these search strategies"),
// and one fixed shape keeps its behavior and its snapshots simple.
const (
	geneticPopulation = 64
	// geneticElites survive unchanged into each next generation.
	geneticElites = 4
	// geneticMutationRate is the per-dimension chain-resample probability;
	// loop orders mutate at half this rate.
	geneticMutationRate = 0.15
)

type individual struct {
	m   *mapping.Mapping
	fit float64 // objective value; +Inf when invalid
}

// GeneticSearcher is the GAMMA-style genetic algorithm (Genetic steps it to
// completion): tournament selection, per-dimension uniform crossover of
// tiling chains, per-level loop-order inheritance, and mutation by chain
// resampling. Fitness is the objective value; invalid mappings score +Inf
// but may still recombine out of trouble.
//
// The first Step samples the initial population and every later Step
// breeds one generation: the elites survive, and the children are drawn
// serially from one serializable RNG, evaluated as one engine batch and
// committed in draw order, so the outcome does not depend on opt.Threads.
// The search stops at exactly opt.MaxEvaluations, or once
// opt.ConsecutiveNoImprove valid children in a row fail to improve the
// incumbent (the random searcher's rule). Snapshots hold the population;
// Restore re-derives its fitness.
type GeneticSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	rng  *checkpoint.RNG
	rnd  *rand.Rand
	smp  *mapspace.Sampler
	mut  *mapspace.Mutator
	eval *engine.Batch
	dims []string

	pop   []individual       // current generation, in population order
	next  []individual       // the generation being bred (swapped with pop)
	brood []*mapping.Mapping // the children being evaluated

	res       *Result
	noImprove int64
	done      bool
	start     time.Time
}

// NewGenetic builds a resumable genetic search that evaluates each
// generation on opt.Threads goroutines (zero selects min(24, NumCPU)).
func NewGenetic(sp *mapspace.Space, eng *engine.Engine, opt Options) *GeneticSearcher {
	opt = opt.withDefaults()
	s := &GeneticSearcher{
		sp: sp, eng: eng, opt: opt,
		rng: checkpoint.NewRNG(opt.Seed),
		smp: sp.NewSampler(), mut: sp.NewMutator(),
		// Elites crossed with themselves reproduce their parents, so the
		// memo cache does get hits.
		eval: eng.NewBatch(true, opt.Threads),
		dims: sp.Work.DimNames(),
		res:  &Result{}, start: time.Now(),
	}
	s.rnd = rand.New(s.rng)
	return s
}

// Result returns the result so far.
func (s *GeneticSearcher) Result() *Result { return s.res }

// Step samples the initial population or breeds one generation. On
// cancellation the generation is rolled back (the RNG rewinds to its start),
// so the committed counters and population always describe an exact prefix
// of the draw sequence.
func (s *GeneticSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	met := s.eng.Metrics()

	elites := min(geneticElites, len(s.pop))
	n := int64(geneticPopulation - elites)
	if s.opt.MaxEvaluations > 0 {
		n = min(n, s.opt.MaxEvaluations-s.res.Evaluated)
		if n <= 0 {
			return s.finish(met), nil
		}
	}

	preGen := *s.rng
	s.brood = s.brood[:0]
	if len(s.pop) > 0 {
		// Stable, so re-sorting an already sorted population (after a
		// cancelled generation) keeps its order.
		slices.SortStableFunc(s.pop, func(a, b individual) int { return cmp.Compare(a.fit, b.fit) })
	}
	for range n {
		var child *mapping.Mapping
		if len(s.pop) == 0 {
			child = &mapping.Mapping{}
			s.smp.SampleInto(s.rnd, child)
		} else {
			pa, pb := s.tournament(), s.tournament()
			child = crossover(s.rnd, s.dims, pa.m, pb.m)
			mutate(s.rnd, s.mut, child, geneticMutationRate)
		}
		s.brood = append(s.brood, child)
	}
	costs := s.eval.Evaluate(ctx, s.brood)
	for i := range costs {
		if engine.Cancelled(&costs[i]) {
			*s.rng = preGen
			return false, ctxErr(ctx)
		}
	}

	// Commit serially in draw order.
	next := append(s.next[:0], s.pop[:elites]...)
	for i := 0; i < len(costs) && !s.done; i++ {
		c := &costs[i]
		s.res.Evaluated++
		fit := s.fitness(c)
		if c.Valid {
			s.res.Valid++
			if s.res.Best == nil || fit < s.opt.Objective.Value(&s.res.BestCost) {
				s.res.improve(s.brood[i], c, fit, met)
				s.noImprove = 0
			} else if s.opt.ConsecutiveNoImprove > 0 {
				s.noImprove++
				s.done = s.noImprove >= s.opt.ConsecutiveNoImprove
			}
		}
		next = append(next, individual{m: s.brood[i], fit: fit})
		if s.opt.MaxEvaluations > 0 && s.res.Evaluated >= s.opt.MaxEvaluations {
			s.done = true
		}
	}
	s.pop, s.next = next, s.pop
	if s.done {
		return s.finish(met), nil
	}
	return false, nil
}

// tournament draws two individuals and returns the fitter.
func (s *GeneticSearcher) tournament() individual {
	a, b := s.pop[s.rnd.Intn(len(s.pop))], s.pop[s.rnd.Intn(len(s.pop))]
	if a.fit <= b.fit {
		return a
	}
	return b
}

// fitness is c's objective value, +Inf when c is invalid.
func (s *GeneticSearcher) fitness(c *nest.Cost) float64 {
	if !c.Valid {
		return math.Inf(1)
	}
	return s.opt.Objective.Value(c)
}

func (s *GeneticSearcher) finish(met engine.Metrics) bool {
	s.done = true
	reportDone(met, s.opt.Objective, s.res, s.start)
	return true
}

// Snapshot implements Searcher.
func (s *GeneticSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st, err := snapshotOf("genetic", s.done, s.rng, s.res)
	if err != nil {
		return nil, err
	}
	st.NoImprove = s.noImprove
	st.Population = make([]json.RawMessage, len(s.pop))
	for i, ind := range s.pop {
		if st.Population[i], err = ind.m.Encode(); err != nil {
			return nil, fmt.Errorf("search: snapshot population: %w", err)
		}
	}
	return st, nil
}

// Restore implements Searcher.
func (s *GeneticSearcher) Restore(st *checkpoint.SearchState) error {
	if err := restoreInto(st, "genetic", s.rng, s.sp, s.res); err != nil {
		return err
	}
	s.noImprove, s.done = st.NoImprove, st.Done
	// The population was evaluated, and counted, before the snapshot: its
	// fitness is re-derived by delta-session seeds, which the engine does
	// not count.
	dw := s.eng.NewDelta()
	s.pop = s.pop[:0]
	for _, raw := range st.Population {
		m, err := decodeMapping(raw, s.sp, "population")
		if err != nil {
			return err
		}
		c := dw.Seed(m)
		s.pop = append(s.pop, individual{m: m, fit: s.fitness(&c)})
	}
	return nil
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
// mutator's Moves, applied for good (genetic mutation is one-way).
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
