package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// map-guided: the `rubymap -search guided` path, one (layer, arch) pair per
// op, serial. Every op compiles its evaluator, builds its mapspace and runs
// search.Guided under Ruby-S, so it stresses search, mapspace and nest and
// bypasses the engine cache, HTTP, sweep and dist.

// guidedPair is one (layer, architecture, dataflow constraints) problem.
type guidedPair struct {
	name string
	w    *workload.Workload
	a    *arch.Arch
	cons mapspace.Constraints
}

// guidedPairs returns every unique ResNet-50 and DeepBench layer on the
// Eyeriss-like 14x12 array (row-stationary constraints) and on the
// Simba-like 15-PE, 4x4-lane design (Simba dataflow), as rubymap's -arch
// presets pair them.
func guidedPairs() []guidedPair {
	eyeriss, simba := arch.EyerissLike(14, 12, 128), arch.SimbaLike(15, 4, 4)
	var out []guidedPair
	for _, l := range append(workloads.ResNet50(), workloads.DeepBench()...) {
		out = append(out,
			guidedPair{l.Name + "@eyeriss", l.Work, eyeriss, mapspace.EyerissRowStationary(l.Work)},
			guidedPair{l.Name + "@simba", l.Work, simba, mapspace.SimbaDataflow(l.Work)})
	}
	return out
}

// guidedAnswer is one op's winner, re-checked after the timed window.
type guidedAnswer struct {
	pair int
	best *mapping.Mapping
	cost nest.Cost
}

type guidedRunner struct {
	e     *env
	pairs []guidedPair
	// ins is the process-wide engine instrumentation, as rubymap wires it.
	ins     *engine.Instruments
	answers []guidedAnswer

	// Traced rounds only.
	probe     probe
	steps     int64
	searchMem uint64 // bytes allocated inside NewGuided + Step
	convEvals int64
	valid     int64
}

func startGuided(ctx context.Context, e *env) (runner, error) {
	g := &guidedRunner{e: e, pairs: guidedPairs(), ins: engine.NewInstruments()}
	if n := e.size.guidedPairs; n > 0 && n < len(g.pairs) {
		g.pairs = g.pairs[:n]
	}
	for i := range g.pairs {
		// Warm-up seeds lie outside every round's seed range.
		if _, err := g.op(ctx, i, e.seed*1000+999); err != nil {
			return nil, err
		}
	}
	g.answers = nil
	return g, nil
}

func (g *guidedRunner) round(ctx context.Context, r int) []sample {
	order := rand.New(rand.NewSource(g.e.seed*1000 + int64(r))).Perm(len(g.pairs))
	out := make([]sample, 0, len(order))
	for _, i := range order {
		s, err := g.op(ctx, i, g.e.seed*1000+int64(r))
		if err != nil {
			s.failed = true
		}
		out = append(out, s)
	}
	return out
}

// op runs one guided mapping of pair i. Untraced it is exactly rubymap's
// call sequence; traced it drives the same NewGuided + Step loop that
// search.Guided wraps, timing each layer's share.
func (g *guidedRunner) op(ctx context.Context, i int, seed int64) (sample, error) {
	p := g.pairs[i]
	opt := search.Options{Seed: seed, MaxEvaluations: g.e.size.guidedEvals}
	traced := obs.RecorderFrom(ctx) != nil

	start := time.Now()
	var res *search.Result
	if !traced {
		ev, err := nest.NewEvaluator(p.w, p.a)
		if err != nil {
			return sample{}, err
		}
		sp := mapspace.New(p.w, p.a, mapspace.RubyS, p.cons)
		res = search.Guided(ctx, sp, engine.Config{Metrics: g.ins}.New(ev), opt)
	} else {
		var err error
		if res, err = g.tracedOp(ctx, p, opt); err != nil {
			return sample{}, err
		}
	}
	s := sample{dur: time.Since(start), evals: res.Evaluated}
	if res.Best == nil {
		return s, fmt.Errorf("%s: no valid mapping", p.name)
	}
	s.edp = res.BestCost.EDP
	g.answers = append(g.answers, guidedAnswer{pair: i, best: res.Best.Clone(), cost: res.BestCost})
	return s, nil
}

func (g *guidedRunner) tracedOp(ctx context.Context, p guidedPair, opt search.Options) (*search.Result, error) {
	ctx, op := obs.StartSpan(ctx, "op")
	defer op.End()

	_, sp := obs.StartSpan(ctx, "nest:compile")
	ev, err := nest.NewEvaluator(p.w, p.a)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "mapspace:new")
	space := mapspace.New(p.w, p.a, mapspace.RubyS, p.cons)
	sp.End()
	eng := engine.Config{Metrics: &g.probe, LatencySampleEvery: 1}.New(ev)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	_, sp = obs.StartSpan(ctx, "search:construct")
	s := search.NewGuided(space, eng, opt)
	sp.End()
	_, sp = obs.StartSpan(ctx, "search:step")
	for {
		g.steps++
		if done, err := s.Step(ctx); done || err != nil {
			break
		}
	}
	sp.End()
	runtime.ReadMemStats(&ms)
	g.searchMem += ms.TotalAlloc - alloc0

	res := s.Result()
	g.valid += res.Valid
	g.convEvals += convergenceEvals(res)
	return res, nil
}

// convergenceEvals returns how many evaluations the search needed to come
// within 1% of its final best (0 without a result).
func convergenceEvals(res *search.Result) int64 {
	if res.Best == nil || len(res.Trace) == 0 {
		return 0
	}
	final := res.Trace[len(res.Trace)-1].Value
	for _, tp := range res.Trace {
		if tp.Value <= 1.01*final {
			return tp.Evals
		}
	}
	return 0
}

func (g *guidedRunner) layers(_ context.Context, w *window, spans map[string]spanStat) map[string]float64 {
	ops := float64(len(w.samples))
	opT := float64(spans["op"].Total)
	c := g.probe.counters()
	lm := map[string]float64{
		"search.construct_frac":         ratio(float64(spans["search:construct"].Total), opT),
		"search.step_frac":              ratio(float64(spans["search:step"].Total), opT),
		"search.steps_per_op":           float64(g.steps) / ops,
		"search.convergence_evals":      float64(g.convEvals) / ops,
		"search.guided_moves_per_op":    c["ruby_guided_moves"] / ops,
		"search.guided_restarts_per_op": c["ruby_guided_restarts"] / ops,
		"search.alloc_kb_per_op":        float64(g.searchMem) / 1024 / ops,
		"mapspace.new_frac":             ratio(float64(spans["mapspace:new"].Total), opT),
		"mapspace.valid_frac":           ratio(float64(g.valid), float64(w.evals())),
		"nest.compile_frac":             ratio(float64(spans["nest:compile"].Total), opT),
		"nest.evals_per_op":             float64(w.evals()) / ops,
	}
	putEngine(lm, c, w.opSeconds())
	return lm
}

// check re-evaluates every winner on a fresh evaluator; the cost must be
// bit-identical to the one the search reported.
func (g *guidedRunner) check() error {
	evs := make(map[int]*nest.Evaluator)
	for _, a := range g.answers {
		ev := evs[a.pair]
		if ev == nil {
			p := g.pairs[a.pair]
			var err error
			if ev, err = nest.NewEvaluator(p.w, p.a); err != nil {
				return err
			}
			evs[a.pair] = ev
		}
		if err := sameCost(ev.Evaluate(a.best), a.cost); err != nil {
			return fmt.Errorf("map-guided %s: re-evaluated winner: %w", g.pairs[a.pair].name, err)
		}
	}
	return nil
}

// sameCost requires got to be a valid cost bit-identical to want in cycles,
// energy and EDP.
func sameCost(got, want nest.Cost) error {
	if !got.Valid || got.Cycles != want.Cycles || got.EnergyPJ != want.EnergyPJ || got.EDP != want.EDP {
		return fmt.Errorf("cost (valid %v, %v cycles, %v pJ, EDP %v), want (%v cycles, %v pJ, EDP %v)",
			got.Valid, got.Cycles, got.EnergyPJ, got.EDP, want.Cycles, want.EnergyPJ, want.EDP)
	}
	return nil
}

func (g *guidedRunner) close() {}
