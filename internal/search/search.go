// Package search finds high-quality mappings within a mapspace. It provides
// the paper's search procedure — Timeloop-style parallel random sampling with
// a consecutive-non-improving-valid-mappings termination criterion — plus an
// exhaustive searcher for the toy studies and orthogonal search strategies
// (the paper notes Ruby composes with improved search techniques): greedy
// hill climbing, simulated annealing, a genetic algorithm, the model-guided
// mapper and a portfolio of them. Every searcher but the portfolio is a
// resumable Searcher (ResumableAlgorithms), and its one-shot entry point
// (Random, Exhaustive, ...) steps it to completion.
//
// Every searcher has one context-first entry point taking the evaluation
// pipeline (engine.Engine — cancellation, memoization, metrics): pass
// engine.New(ev) for a transparent pass-through and a nil or Background
// context when cancellation is not needed. Cancelling the context stops a
// search promptly and returns the best result found so far. Searches record
// trace spans when the context carries an obs.Recorder.
//
// Options.Threads sets how many goroutines a search evaluates on, and
// nothing else: for a given seed every searcher returns the same mapping,
// cost, counters and trace at any thread count.
package search

import (
	"context"
	"runtime"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// Options configures a search. The zero value is a usable default for every
// searcher; unset fields assume the documented defaults.
type Options struct {
	// Algo selects the search algorithm for the call sites that dispatch by
	// name (search.Run, sweep.SearchLayer, the /v1 server): one of
	// Algorithms, with "" meaning random sampling. The direct entry points
	// (Random, Guided, ...) ignore it.
	Algo string
	// Seed makes the search reproducible: random draw k samples with an
	// RNG seeded from (Seed, k), and the other stochastic searchers draw
	// from one RNG seeded by Seed.
	Seed int64
	// Threads is the number of goroutines a random, exhaustive or genetic
	// search evaluates on (default min(24, NumCPU), 24 matching the paper's
	// setup). It sets speed only: the result is the same at any value.
	Threads int
	// MaxEvaluations caps the total number of sampled mappings (0 = no cap).
	MaxEvaluations int64
	// ConsecutiveNoImprove terminates a random or genetic search once this
	// many valid mappings in a row fail to improve the best EDP (the paper
	// uses 3000). 0 disables the criterion (then MaxEvaluations must be
	// set).
	ConsecutiveNoImprove int64
	// KeepTrace records the improvement events for convergence plots
	// (Fig. 7).
	KeepTrace bool
	// Objective selects the minimized metric (default EDP).
	Objective Objective
	// WarmStart optionally seeds the search with a known mapping (e.g. from
	// the constructive heuristic mapper); it is evaluated before sampling
	// begins and counts as the incumbent if valid.
	WarmStart *mapping.Mapping
	// Warmup is the number of random samples seeding the HillClimb and
	// Anneal walks (other searchers ignore it). 0 selects 1000, or a tenth
	// of MaxEvaluations (at least 1) when that is smaller, so a small
	// budget still leaves most of it to the walk.
	Warmup int
	// Patience is the number of consecutive failed HillClimb proposals
	// before the climb stops (0 = default 2000; other searchers ignore it).
	Patience int
	// Shard restricts an exhaustive scan to a contiguous range of
	// leading-dimension chain indices (the zero value means the whole
	// space). The distributed coordinator carves the enumeration into
	// disjoint shards with mapspace.Space.ShardLeading and runs one
	// exhaustive searcher per range; the union of the shard scans visits
	// exactly the unrestricted enumeration. Stochastic searchers
	// ignore the field — their shard identity is the Seed (RNG substream).
	Shard mapspace.ChainRange
}

// Default hill-climb knobs applied when Options leaves them zero.
const (
	defaultWarmup   = 1000
	defaultPatience = 2000
)

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = min(24, runtime.NumCPU())
	}
	if o.ConsecutiveNoImprove <= 0 && o.MaxEvaluations <= 0 {
		o.ConsecutiveNoImprove = 3000
	}
	if o.Warmup <= 0 {
		o.Warmup = defaultWarmup
		if o.MaxEvaluations > 0 {
			o.Warmup = int(max(1, min(defaultWarmup, o.MaxEvaluations/10)))
		}
	}
	if o.Patience <= 0 {
		o.Patience = defaultPatience
	}
	return o
}

// TracePoint is one improvement event: after Evals evaluated mappings the
// best objective value dropped to Value. Snapshots hold the same type.
type TracePoint = checkpoint.TracePoint

// Result summarizes a search.
type Result struct {
	Best      *mapping.Mapping // nil when no valid mapping was found
	BestCost  nest.Cost
	Evaluated int64
	Valid     int64
	Trace     []TracePoint
}

// BestEDPAt returns the best objective value seen within the first n
// evaluations, interpolating the improvement trace. Returns ok=false when
// nothing valid was found by then.
func (r *Result) BestEDPAt(n int64) (float64, bool) {
	best, ok := 0.0, false
	for _, tp := range r.Trace {
		if tp.Evals > n {
			break
		}
		best, ok = tp.Value, true
	}
	return best, ok
}

// Random runs the paper's random-sampling search through the evaluation
// pipeline and returns the best mapping found. It mirrors Timeloop's
// Random-Sampling search: mapspace generation proposes structurally valid
// mappings, the cost model filters invalid ones, and the search stops after
// opt.ConsecutiveNoImprove consecutive valid mappings without improvement
// (and/or opt.MaxEvaluations samples). Its opt.Threads goroutines evaluate
// draws that are seeded by their index, so the result does not depend on
// the thread count. Cancelling ctx stops the search promptly, returning the
// best mapping found so far. It is NewRandom stepped to completion.
func Random(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	return stepToDone(ctx, "search:random", NewRandom(sp, eng, opt))
}

// Exhaustive enumerates the tiling mapspace in deterministic order (with
// canonical loop orders), up to maxMappings (0 = all; only feasible for toy
// problems), evaluating batches in parallel through eng and minimizing
// opt.Objective. A non-empty opt.Shard confines the scan to that
// leading-dimension chain range. Results are identical to a serial scan at
// any opt.Threads: batches preserve enumeration order and the incumbent
// only changes on strict improvement. Cancelling ctx stops the scan,
// returning the best mapping found so far. It is NewExhaustive stepped to
// completion.
func Exhaustive(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options, maxMappings int64) *Result {
	return stepToDone(ctx, "search:exhaustive", NewExhaustive(sp, eng, opt, maxMappings))
}

// HillClimb seeds a greedy local search with the best of opt.Warmup random
// samples, then repeatedly proposes a Move — resampling one dimension's
// tiling chain, one level's loop order or (in bypass-exploring spaces) one
// bypass bit — accepting strict improvements, until opt.Patience
// consecutive proposals fail (or opt.MaxEvaluations is exhausted, or ctx is
// cancelled). It demonstrates that Ruby-style mapspaces compose with search
// strategies beyond random sampling. It is NewHillClimb stepped to
// completion, so it draws from the serializable checkpoint RNG and a run
// matches its resumable twin draw for draw.
func HillClimb(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	return stepToDone(ctx, "search:hillclimb", NewHillClimb(sp, eng, opt))
}

// Anneal is simulated annealing: HillClimb's warm-up and Move walk, with
// worsening moves accepted with Boltzmann probability under a geometrically
// cooled temperature, which escapes the local optima that trap greedy
// search in the large Ruby mapspaces. The warm-up sample count comes from
// opt.Warmup, and the temperature cools over the opt.MaxEvaluations budget
// left after it. It is NewAnneal stepped to completion.
func Anneal(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	return stepToDone(ctx, "search:anneal", NewAnneal(sp, eng, opt))
}

// Genetic evolves a population of mappings by tournament selection,
// crossover and mutation, evaluating each generation as one engine batch,
// until opt.MaxEvaluations or opt.ConsecutiveNoImprove ends it. It is
// NewGenetic stepped to completion.
func Genetic(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	return stepToDone(ctx, "search:genetic", NewGenetic(sp, eng, opt))
}

// requireSharedContext asserts that the mapspace and the engine's evaluator
// were built over the same workload and architecture objects. The
// incremental pipeline patches the mapping's memoized dense lowering in
// place, and that memo is keyed by object identity: with distinct (even if
// equivalent) objects the patches would silently miss the lowering the
// delta kernel reads. The random searcher's capacity screen likewise reads
// the sampler's lowering with the engine's plan. Every production call
// site already shares the objects; this turns a misuse into a fail-fast
// panic.
func requireSharedContext(sp *mapspace.Space, eng *engine.Engine) {
	ev := eng.Evaluator()
	if sp.Work != ev.Work || sp.Arch != ev.Arch {
		panic("search: mapspace and engine must share workload and architecture objects")
	}
}
