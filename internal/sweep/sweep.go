// Package sweep runs mapping strategies over whole workload suites and
// architecture configurations — the machinery behind the paper's per-layer
// comparisons (Figs. 10-12) and the architectural design-space exploration
// (Figs. 13-14).
//
// Suite runs route through the evaluation engine (internal/engine): layer
// searches honor context cancellation, share a metrics hook, optionally
// memoize duplicate samples, and run in parallel across layers; network
// searches then run their fused segments in parallel across edges. Every
// layer and segment search is seeded independently, and no search's result
// depends on its Search.Threads, so parallel and serial runs produce
// identical output. When the context carries an obs.Recorder, each suite,
// layer and segment search records a trace span, so a suite run's span
// tree reads suite → layer → search → eval-batch.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/library"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/stats"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// Strategy is one mapping approach compared in the paper: a mapspace kind,
// optionally combined with the dimension-padding baseline of Section III-B.
type Strategy struct {
	Name string
	Kind mapspace.Kind
	Pad  bool // try padded workload variants and keep the best
}

// Strategies returns the three approaches compared in the architecture
// sweeps: perfect factorization, perfect factorization with padding, and
// Ruby-S.
func Strategies() []Strategy {
	return []Strategy{
		{Name: "PFM", Kind: mapspace.PFM},
		{Name: "PFM+pad", Kind: mapspace.PFM, Pad: true},
		{Name: "Ruby-S", Kind: mapspace.RubyS},
	}
}

// ConstraintFn derives per-workload mapspace constraints (dataflow styles
// reference dimension names, which differ between convs and GEMMs).
type ConstraintFn func(*workload.Workload) mapspace.Constraints

// SuiteOptions bundles the knobs of a suite run beyond the per-layer search
// options: the evaluation-engine configuration (cache, metrics), an optional
// mapping library, and the number of searches run concurrently.
type SuiteOptions struct {
	// Search configures each layer's random search.
	Search search.Options
	// Engine configures the evaluation pipeline built per workload variant.
	Engine engine.Config
	// Library optionally caches best-known mappings across runs.
	Library *library.Store
	// Checkpoint optionally persists per-layer progress, so interrupted
	// suite runs resume by skipping verified completed layers. Unlike
	// Library (a cross-run cache keyed only by the problem), checkpoint
	// entries are keyed by the full search configuration, so they are exact
	// resumption, not approximation.
	Checkpoint *SuiteCheckpoint
	// Parallel is the number of layers — and, in SearchNetwork, of fused
	// segments — searched concurrently (0 = derive from NumCPU and
	// Search.Threads so the machine is busy but not oversubscribed;
	// 1 = serial).
	Parallel int
}

func (so SuiteOptions) withDefaults() SuiteOptions {
	if so.Parallel <= 0 {
		threads := so.Search.Threads
		if threads <= 0 {
			threads = min(24, runtime.NumCPU())
		}
		so.Parallel = max(1, runtime.NumCPU()/threads)
	}
	return so
}

// LayerResult is the outcome of searching one layer under one strategy.
type LayerResult struct {
	Layer    workloads.Layer
	Cost     nest.Cost
	Search   *search.Result
	Workload *workload.Workload // the (possibly padded) variant that won
}

// SearchLayer searches the best mapping for one layer on one architecture
// under one strategy, using the algorithm opt.Algo selects (random sampling
// by default). For padding strategies every padded variant is searched and
// the lowest-EDP result wins (Section III-B's baseline). An error is
// returned when no valid mapping exists at all. Each workload variant's
// search routes through an engine built from ecfg, and a cancelled ctx
// aborts with its error.
func SearchLayer(ctx context.Context, l workloads.Layer, a *arch.Arch, st Strategy,
	consFn ConstraintFn, opt search.Options, ecfg engine.Config) (LayerResult, error) {

	variants := []*workload.Workload{l.Work}
	if st.Pad {
		fx, fy := arrayAxes(a)
		variants = mapspace.PaddedVariants(l.Work, consFn(l.Work), fx, fy)
	}
	var best LayerResult
	for _, w := range variants {
		if ctx != nil && ctx.Err() != nil {
			return LayerResult{}, fmt.Errorf("sweep: layer %s on %s: %w", l.Name, a.Name, ctx.Err())
		}
		ev, err := nest.NewEvaluator(w, a)
		if err != nil {
			return LayerResult{}, fmt.Errorf("sweep: layer %s on %s: %w", l.Name, a.Name, err)
		}
		eng := ecfg.New(ev)
		sp := mapspace.New(w, a, st.Kind, consFn(w))
		res, err := search.Run(ctx, sp, eng, opt.Algo, opt)
		if err != nil {
			return LayerResult{}, fmt.Errorf("sweep: layer %s on %s: %w", l.Name, a.Name, err)
		}
		if res.Best == nil {
			// Guaranteed fallback: the all-at-DRAM uniform mapping streams
			// single elements through the hierarchy, so it satisfies every
			// capacity and fanout bound and belongs to every mapspace kind
			// (all factors divide trivially). It anchors tiny search
			// budgets without biasing real ones.
			m := mapping.Uniform(w, a, 0)
			if c := eng.Evaluate(m); c.Valid {
				res = &search.Result{Best: m, BestCost: c, Evaluated: res.Evaluated}
			} else {
				continue
			}
		}
		if best.Search == nil || res.BestCost.EDP < best.Cost.EDP {
			best = LayerResult{Layer: l, Cost: res.BestCost, Search: res, Workload: w}
		}
	}
	if best.Search == nil {
		if ctx != nil && ctx.Err() != nil {
			return LayerResult{}, fmt.Errorf("sweep: layer %s on %s: %w", l.Name, a.Name, ctx.Err())
		}
		return LayerResult{}, fmt.Errorf("sweep: no valid mapping for layer %s on %s under %s", l.Name, a.Name, st.Name)
	}
	return best, nil
}

// arrayAxes returns the dominant spatial fanout axes of the architecture
// (the PE array dimensions padding aligns to).
func arrayAxes(a *arch.Arch) (x, y int) {
	x, y = 1, 1
	for i := range a.Levels {
		f := a.Levels[i].Fanout
		if f.FanoutX*max(1, f.FanoutY) > x*y {
			x, y = f.FanoutX, max(1, f.FanoutY)
		}
	}
	return x, y
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SuiteResult aggregates a suite under one strategy on one architecture.
type SuiteResult struct {
	Strategy Strategy
	Arch     *arch.Arch
	Layers   []LayerResult

	// Repeat-weighted totals across the suite. EDP is TotalEnergy x
	// TotalCycles (whole-network energy-delay product, as in Fig. 10's
	// final column).
	TotalEnergyPJ float64
	TotalCycles   float64
	EDP           float64
}

// RunSuiteLayers searches every layer of a suite and aggregates network
// totals. Layer searches run so.Parallel at a time (deterministic — each
// layer's search is independent and explicitly seeded, and aggregation
// preserves layer order), evaluations route through engines built from
// so.Engine, and cancellation aborts the whole run with ctx's error.
//
// This is the per-layer core; RunSuite is the network-graph entry point that
// feeds it, and SearchNetwork layers fusion on top.
func RunSuiteLayers(ctx context.Context, layers []workloads.Layer, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions) (*SuiteResult, error) {

	ctx, span := obs.StartSpan(ctx, "suite:"+st.Name)
	defer span.End()
	so = so.withDefaults()
	out := &SuiteResult{Strategy: st, Arch: a}
	results := make([]LayerResult, len(layers))
	err := forEachIndex(ctx, len(layers), so.Parallel, func(i int) error {
		var err error
		results[i], err = searchLayerCached(ctx, layers[i], a, st, consFn, so)
		return err
	})
	if err != nil {
		return nil, err
	}

	for i, l := range layers {
		out.Layers = append(out.Layers, results[i])
		r := float64(l.Repeat)
		out.TotalEnergyPJ += r * results[i].Cost.EnergyPJ
		out.TotalCycles += r * results[i].Cost.Cycles
	}
	out.EDP = out.TotalEnergyPJ * out.TotalCycles
	return out, nil
}

// forEachIndex calls fn(i) for every i in [0, n), up to workers at a time
// (workers <= 1 runs serially on the calling goroutine). Indices start in
// ascending order; once ctx is done or a call fails, no further index
// starts. The result is the error of the lowest failing index — the error a
// serial loop stopping at its first failure returns, since every lower
// index has already started — or, when ctx stopped the loop before every
// index ran, an error wrapping ctx's.
func forEachIndex(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	// claim hands out the next index, or -1 once the loop must stop.
	claim := func(ctx context.Context) int {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || ctx != nil && ctx.Err() != nil {
			return -1
		}
		i := next
		next++
		return i
	}
	work := func(ctx context.Context) {
		for i := claim(ctx); i >= 0; i = claim(ctx) {
			if errs[i] = fn(i); errs[i] != nil {
				mu.Lock()
				next = n // start nothing more
				mu.Unlock()
			}
		}
	}
	if workers <= 1 {
		work(ctx)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(ctx)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if next < n {
		return fmt.Errorf("sweep: %d of %d tasks not started: %w", n-next, n, ctx.Err())
	}
	return nil
}

func searchLayerCached(ctx context.Context, l workloads.Layer, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions) (LayerResult, error) {

	ctx, span := obs.StartSpan(ctx, "layer:"+l.Name)
	defer span.End()
	if so.Checkpoint != nil {
		if lr, ok := so.Checkpoint.resume(l, a, st, consFn, so.Search); ok {
			return lr, nil
		}
	}
	lr, err := searchLayerLib(ctx, l, a, st, consFn, so)
	if err != nil {
		return lr, err
	}
	if so.Checkpoint != nil {
		if err := so.Checkpoint.record(l, a, st, so.Search, lr); err != nil {
			return lr, err
		}
	}
	return lr, nil
}

func searchLayerLib(ctx context.Context, l workloads.Layer, a *arch.Arch, st Strategy,
	consFn ConstraintFn, so SuiteOptions) (LayerResult, error) {

	lib := so.Library
	if lib == nil || st.Pad {
		return SearchLayer(ctx, l, a, st, consFn, so.Search, so.Engine)
	}
	cons := consFn(l.Work)
	key := library.Key(l.Work, a, st.Kind, cons)
	ev, err := nest.NewEvaluator(l.Work, a)
	if err != nil {
		return LayerResult{}, err
	}
	slots := mapping.Slots(a)
	if m, ok := lib.Get(key, l.Work, slots); ok {
		if c := ev.Evaluate(m); c.Valid {
			return LayerResult{
				Layer: l, Cost: c, Workload: l.Work,
				Search: &search.Result{Best: m, BestCost: c, Evaluated: 1, Valid: 1},
			}, nil
		}
	}
	lr, err := SearchLayer(ctx, l, a, st, consFn, so.Search, so.Engine)
	if err != nil {
		return lr, err
	}
	if err := lib.Put(key, lr.Search.Best); err != nil {
		return lr, err
	}
	return lr, nil
}

// ArrayConfig is one PE-array size in the design-space exploration.
type ArrayConfig struct {
	Cols, Rows int
}

// String renders the configuration as "COLSxROWS".
func (c ArrayConfig) String() string { return fmt.Sprintf("%dx%d", c.Cols, c.Rows) }

// PEs returns the array's PE count.
func (c ArrayConfig) PEs() int { return c.Cols * c.Rows }

// EyerissConfigs returns the sweep range of Section IV-E: Eyeriss-like PE
// arrays from 2x7 to 16x16.
func EyerissConfigs() []ArrayConfig {
	return []ArrayConfig{
		{2, 7}, {4, 6}, {7, 6}, {8, 8}, {10, 8}, {12, 10},
		{14, 12}, {16, 12}, {14, 14}, {16, 16},
	}
}

// DesignPoint is one architecture configuration's outcome across strategies.
type DesignPoint struct {
	Config  ArrayConfig
	AreaMM2 float64
	// EDP per strategy name.
	EDP map[string]float64
}

// Explore sweeps the Eyeriss-like configurations over a suite for each
// strategy, producing the data behind Figs. 13-14. glbKiB fixes the global
// buffer size across configurations. Cancellation, engine configuration and
// suite-level parallelism (so) apply to every configuration's suite runs.
func Explore(ctx context.Context, layers []workloads.Layer, configs []ArrayConfig, glbKiB int,
	sts []Strategy, consFn ConstraintFn, so SuiteOptions) ([]DesignPoint, error) {

	var out []DesignPoint
	for _, cfg := range configs {
		a := arch.EyerissLike(cfg.Cols, cfg.Rows, glbKiB)
		dp := DesignPoint{Config: cfg, AreaMM2: a.AreaMM2(), EDP: make(map[string]float64, len(sts))}
		for _, st := range sts {
			sr, err := RunSuiteLayers(ctx, layers, a, st, consFn, so)
			if err != nil {
				return nil, err
			}
			dp.EDP[st.Name] = sr.EDP
		}
		out = append(out, dp)
	}
	return out, nil
}

// Frontier extracts the area-EDP Pareto frontier of one strategy from sweep
// results.
func Frontier(points []DesignPoint, strategy string) []stats.Point {
	var ps []stats.Point
	for _, dp := range points {
		if edp, ok := dp.EDP[strategy]; ok {
			ps = append(ps, stats.Point{X: dp.AreaMM2, Y: edp, Label: dp.Config.String()})
		}
	}
	return stats.ParetoFrontier(ps)
}
