// Package engine is the evaluation pipeline between the searchers and the
// pure cost model. Every consumer that evaluates mappings in bulk — the
// searchers, the suite sweeps, the experiment runners, the HTTP server —
// routes through an Engine, which layers three production concerns on top of
// nest.Evaluator without touching the model itself:
//
//   - cancellation: batch evaluation honors a context, so searches stop
//     promptly on deadlines and client disconnects;
//   - memoization: an optional concurrency-safe cache keyed by the mapping's
//     lowering (mapping.Dense, encoded into a reusable buffer) stops random
//     sampling in small or heavily constrained mapspaces from re-paying full
//     model cost for duplicate samples (exhaustive scans, which never repeat
//     a mapping, bypass it: see NewBatch);
//   - instrumentation: a pluggable Metrics hook counts evaluations, validity,
//     cache hits, improvement events and per-search wall time, with an
//     atomic default implementation exportable via expvar/JSON.
//
// The Engine is safe for concurrent use; a zero Config yields a transparent
// pass-through (no cache, no metrics) so Engine results are always
// bit-identical to calling nest.Evaluator.Evaluate directly.
package engine

import (
	"sync/atomic"
	"time"

	"ruby/internal/mapping"
	"ruby/internal/nest"
)

// CancelledReason marks a Cost slot that was skipped because the batch's
// context was cancelled before the mapping was evaluated. It can never
// collide with a real model verdict (model reasons never carry the
// "engine:" prefix).
const CancelledReason = "engine: evaluation cancelled"

// Cancelled reports whether a cost is a cancellation placeholder rather than
// a real model verdict.
func Cancelled(c *nest.Cost) bool { return !c.Valid && c.Reason == CancelledReason }

// Config tunes an Engine. The zero value is a transparent pass-through.
type Config struct {
	// CacheEntries bounds the evaluation cache (approximately; the
	// generational eviction keeps at most ~2x this many entries resident).
	// 0 disables caching entirely.
	CacheEntries int
	// Metrics receives evaluation and search events. nil disables
	// instrumentation.
	Metrics Metrics
	// LatencySampleEvery reports every Nth uncached evaluation's model
	// latency to Metrics.EvalLatency (counted per worker). 0 selects the
	// default of 64 — two clock reads per 64 evaluations keep the timing
	// overhead far below the hot path's noise floor — 1 times every
	// evaluation, and a negative value disables latency sampling.
	LatencySampleEvery int
}

// defaultLatencySampleEvery is the sampling period Config.LatencySampleEvery
// zero selects.
const defaultLatencySampleEvery = 64

// Engine evaluates mappings for one (workload, architecture) pair.
type Engine struct {
	ev          *nest.Evaluator
	cache       *memoCache
	firstSlot   []int // per level, its temporal slot (cache keys)
	metrics     Metrics
	sampleEvery uint64 // 0 = latency sampling disabled
	nEvals      atomic.Uint64
	// evalHook, when non-nil, replaces the raw model call — test-only
	// injection for exercising the panic guard.
	evalHook func(*mapping.Mapping) nest.Cost
}

// New builds an Engine from a Config. A nil Metrics is replaced by
// NopMetrics.
func (c Config) New(ev *nest.Evaluator) *Engine {
	e := &Engine{ev: ev, metrics: c.Metrics}
	if e.metrics == nil {
		e.metrics = NopMetrics
	}
	switch {
	case c.LatencySampleEvery == 0:
		e.sampleEvery = defaultLatencySampleEvery
	case c.LatencySampleEvery > 0:
		e.sampleEvery = uint64(c.LatencySampleEvery)
	}
	if c.CacheEntries > 0 {
		e.cache = newMemoCache(c.CacheEntries)
		e.firstSlot = make([]int, len(ev.Arch.Levels))
		for li := range e.firstSlot {
			e.firstSlot[li] = mapping.FirstSlotOfLevel(ev.Slots, li)
		}
	}
	return e
}

// New builds a pass-through Engine (no cache, no metrics) — the adapter the
// legacy non-context search entry points use.
func New(ev *nest.Evaluator) *Engine { return Config{}.New(ev) }

// Evaluator exposes the wrapped pure cost model.
func (e *Engine) Evaluator() *nest.Evaluator { return e.ev }

// Metrics exposes the engine's metrics hook (never nil), so searchers can
// record search-level events (improvements, wall time) alongside the
// per-evaluation counters the Engine records itself.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Evaluate runs one mapping through the cache and the model. Cached costs
// are bit-identical to fresh ones: the model is deterministic, and the cache
// key — the mapping's lowering (memoized on the mapping), encoded into a
// stack buffer — covers exactly what the model reads. A mapping that fails
// to lower is evaluated uncached. The returned Cost shares its per-level
// slices with the cache; callers treat costs as read-only (all existing
// consumers do). A panicking model call is isolated, retried and — if it
// keeps panicking — degraded to an invalid Cost with a PanicReason (see
// evalGuarded).
func (e *Engine) Evaluate(m *mapping.Mapping) nest.Cost {
	var buf [256]byte
	key, ok := e.cacheKey(buf[:0], m)
	if !ok {
		c := e.timedEval(m, nil, e.nEvals.Add(1))
		e.metrics.Evaluation(c.Valid, false)
		return c
	}
	if c, ok := e.cache.get(key); ok {
		e.metrics.Evaluation(c.Valid, true)
		return c
	}
	c := e.timedEval(m, nil, e.nEvals.Add(1))
	e.cache.put(key, c)
	e.metrics.Evaluation(c.Valid, false)
	return c
}

// cacheKey encodes m's memo-cache key into buf (see appendKey). It reports
// false when the engine has no cache or m fails to lower: such a mapping has
// no lowered form and is evaluated uncached.
//
//ruby:hotpath
func (e *Engine) cacheKey(buf []byte, m *mapping.Mapping) ([]byte, bool) {
	if e.cache == nil {
		return buf, false
	}
	dn, err := m.Dense(e.ev.Work, e.ev.Arch, e.ev.Slots)
	if err != nil {
		return buf, false
	}
	return e.appendKey(buf, dn), true
}

// timedEval runs one guarded model call, timing every sampleEvery-th call
// and reporting it to Metrics.EvalLatency. n is the caller's running count
// of uncached evaluations — per Worker on the search hot path, engine-wide
// for Engine.Evaluate — so the sampling clock adds no shared state to
// worker loops.
//
//ruby:hotpath
func (e *Engine) timedEval(m *mapping.Mapping, w *Worker, n uint64) nest.Cost {
	if e.sampleEvery == 0 || n%e.sampleEvery != 0 {
		return e.evalGuarded(m, w)
	}
	start := time.Now()
	c := e.evalGuarded(m, w)
	e.metrics.EvalLatency(time.Since(start))
	return c
}

// Worker is a per-goroutine evaluation handle: the engine's compiled plan
// plus a private scratch. It keeps the hot path allocation-free — no pool
// traffic, no locks — while sharing the engine's cache and metrics. A Worker
// must not be used from more than one goroutine at a time.
type Worker struct {
	e       *Engine
	scratch *nest.Scratch
	key     []byte // cache-key buffer, reused across evaluations
	n       uint64 // uncached evaluations; drives latency sampling
}

// NewWorker builds an evaluation worker bound to the engine.
func (e *Engine) NewWorker() *Worker {
	return &Worker{e: e, scratch: e.ev.Plan().NewScratch()}
}

// Scratch returns the worker's model scratch, where a capacity screen
// (nest.Plan.ScreenStart) may keep its state between the worker's
// evaluations: the next evaluation on the worker rewrites all of it.
func (w *Worker) Scratch() *nest.Scratch { return w.scratch }

// Screened reports a draw that a capacity screen rejected before the model
// saw it: one invalid, uncached evaluation, without a latency sample. The
// screen rejects only draws the model would judge invalid, so the counters
// read as if the model had judged the draw.
func (w *Worker) Screened() { w.e.metrics.Evaluation(false, false) }

// EvaluateShared is Engine.Evaluate on the worker's scratch, without
// detaching the result: the returned Cost's per-level slices alias either
// the worker's scratch or a cache entry, and scratch-backed results are
// overwritten by the worker's next evaluation. Callers that retain a cost
// across evaluations (e.g. a search's running best) must Clone it. This is the zero-allocation steady-state path
// for cache-less tight loops; with a cache, the key is encoded into the
// worker's own buffer, so a hit allocates nothing either, and a miss
// allocates the cache entry (key string and cost).
func (w *Worker) EvaluateShared(m *mapping.Mapping) nest.Cost {
	e := w.e
	key, ok := e.cacheKey(w.key[:0], m)
	if !ok {
		return w.evaluate(m)
	}
	w.key = key
	if c, ok := e.cache.get(key); ok {
		e.metrics.Evaluation(c.Valid, true)
		return c
	}
	c := w.evaluate(m).Clone()
	e.cache.put(key, c)
	return c
}

// evaluate is the uncached model call on the worker's scratch: the panic
// guard, latency sampling and the Metrics.Evaluation report, with the
// returned Cost's per-level slices aliasing the scratch.
func (w *Worker) evaluate(m *mapping.Mapping) nest.Cost {
	w.n++
	c := w.e.timedEval(m, w, w.n)
	w.e.metrics.Evaluation(c.Valid, false)
	return c
}
