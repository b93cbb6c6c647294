package engine

import (
	"expvar"
	"sync/atomic"
	"time"
)

// Metrics receives evaluation-pipeline events. Implementations must be safe
// for concurrent use: every search worker calls Evaluation on the hot path.
// Counters implements the counting subset; Instruments adds the
// distribution events (latency, best objective) on obs histograms.
type Metrics interface {
	// Evaluation is called once per Engine.Evaluate: valid is the model's
	// verdict, cached reports whether the cost came from the memo cache. A
	// random draw the capacity screen rejects (Worker.Screened) is called
	// in too, as an invalid, uncached verdict without a model call: it
	// reaches neither the cache nor the model, so it has no latency sample,
	// and it is invalid because the model would have judged it so.
	Evaluation(valid, cached bool)
	// EvalLatency reports the wall time of one model evaluation. The engine
	// samples (Config.LatencySampleEvery), so it is called for a subset of
	// the uncached evaluations; implementations must stay cheap and
	// allocation-free — it runs on the search hot path.
	EvalLatency(d time.Duration)
	// BatchLatency reports the wall time of one Batch.Evaluate call of n
	// mappings (called once per batch, not per evaluation).
	BatchLatency(d time.Duration, n int)
	// Improvement is called when a search's incumbent best improves, with
	// the evaluation ordinal and the new objective value.
	Improvement(evals int64, value float64)
	// BestObjective is called once per completed search that found a valid
	// mapping, with the final best objective value (EDP under the default
	// objective).
	BestObjective(v float64)
	// SearchDone is called once per completed search with its wall time and
	// final counters.
	SearchDone(wall time.Duration, evaluated, valid int64)
	// Panic is called each time a model evaluation panics and is recovered
	// by the engine's isolation guard (including each failed retry).
	Panic()
}

// GuidedMetrics is the optional Metrics extension for the model-guided
// searcher's counters. Implementations that also satisfy Metrics receive
// one GuidedMove per committed greedy move and one GuidedRestart per
// perturbation restart. search.Guided discovers it by type assertion on
// Engine.Metrics(), so plain Metrics implementations keep working
// unchanged.
type GuidedMetrics interface {
	GuidedMove()
	GuidedRestart()
}

// PortfolioMetrics is the optional Metrics extension recording which member
// searcher of a search.Portfolio produced the final incumbent. The member
// is the searcher's stable name ("random", "genetic", "anneal",
// "hillclimb", "guided").
type PortfolioMetrics interface {
	PortfolioWin(member string)
}

// NopMetrics discards all events; it is the default hook.
var NopMetrics Metrics = nopMetrics{}

type nopMetrics struct{}

func (nopMetrics) Evaluation(bool, bool)                  {}
func (nopMetrics) EvalLatency(time.Duration)              {}
func (nopMetrics) BatchLatency(time.Duration, int)        {}
func (nopMetrics) Improvement(int64, float64)             {}
func (nopMetrics) BestObjective(float64)                  {}
func (nopMetrics) SearchDone(time.Duration, int64, int64) {}
func (nopMetrics) Panic()                                 {}

// Counters is the default Metrics implementation: lock-free atomic counters
// cheap enough for the evaluation hot path, with a JSON-friendly Snapshot
// and optional expvar export. The atomics analyzer (tools/rubylint) rejects
// any access to these fields that bypasses sync/atomic.
//
//ruby:atomic
type Counters struct {
	evaluations    atomic.Int64
	valid          atomic.Int64
	cacheHits      atomic.Int64
	improvements   atomic.Int64
	searches       atomic.Int64
	wallNanos      atomic.Int64
	panics         atomic.Int64
	guidedMoves    atomic.Int64
	guidedRestarts atomic.Int64
}

// Evaluation implements Metrics.
func (c *Counters) Evaluation(valid, cached bool) {
	c.evaluations.Add(1)
	if valid {
		c.valid.Add(1)
	}
	if cached {
		c.cacheHits.Add(1)
	}
}

// EvalLatency implements Metrics. Counters only counts; the latency
// distribution lives in Instruments' histograms.
func (c *Counters) EvalLatency(time.Duration) {}

// BatchLatency implements Metrics (a no-op; see Instruments).
func (c *Counters) BatchLatency(time.Duration, int) {}

// Improvement implements Metrics.
func (c *Counters) Improvement(int64, float64) { c.improvements.Add(1) }

// BestObjective implements Metrics (a no-op; see Instruments).
func (c *Counters) BestObjective(float64) {}

// SearchDone implements Metrics.
func (c *Counters) SearchDone(wall time.Duration, _, _ int64) {
	c.searches.Add(1)
	c.wallNanos.Add(int64(wall))
}

// Panic implements Metrics.
func (c *Counters) Panic() { c.panics.Add(1) }

// GuidedMove implements GuidedMetrics: one committed greedy move.
//
//ruby:hotpath
func (c *Counters) GuidedMove() { c.guidedMoves.Add(1) }

// GuidedRestart implements GuidedMetrics: one perturbation restart.
func (c *Counters) GuidedRestart() { c.guidedRestarts.Add(1) }

// Snapshot is a point-in-time copy of the counters with derived rates.
type Snapshot struct {
	Evaluations   int64   `json:"evaluations"`    // total Evaluate calls
	Valid         int64   `json:"valid"`          // evaluations with a valid verdict
	ValidRate     float64 `json:"valid_rate"`     // Valid / Evaluations
	CacheHits     int64   `json:"cache_hits"`     // evaluations served from the memo cache
	CacheHitRate  float64 `json:"cache_hit_rate"` // CacheHits / Evaluations
	Improvements  int64   `json:"improvements"`   // incumbent-best improvements
	Searches      int64   `json:"searches"`       // completed searches
	SearchSeconds float64 `json:"search_seconds"` // summed search wall time
	Panics        int64   `json:"panics"`         // recovered evaluation panics (incl. retries)
	// GuidedMoves/GuidedRestarts count the model-guided searcher's
	// committed moves and perturbation restarts (zero unless Guided ran).
	GuidedMoves    int64 `json:"guided_moves"`
	GuidedRestarts int64 `json:"guided_restarts"`
}

// Snapshot reads the counters. The reads are individually atomic (not a
// consistent cut), which is fine for monitoring.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{
		Evaluations:    c.evaluations.Load(),
		Valid:          c.valid.Load(),
		CacheHits:      c.cacheHits.Load(),
		Improvements:   c.improvements.Load(),
		Searches:       c.searches.Load(),
		SearchSeconds:  float64(c.wallNanos.Load()) / 1e9,
		Panics:         c.panics.Load(),
		GuidedMoves:    c.guidedMoves.Load(),
		GuidedRestarts: c.guidedRestarts.Load(),
	}
	if s.Evaluations > 0 {
		s.ValidRate = float64(s.Valid) / float64(s.Evaluations)
		s.CacheHitRate = float64(s.CacheHits) / float64(s.Evaluations)
	}
	return s
}

// Publish registers the counters under name in the process-wide expvar
// registry (visible at /debug/vars when expvar's handler is mounted). It is
// a no-op when the name is already taken, so repeated construction in tests
// cannot panic.
func (c *Counters) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return c.Snapshot() }))
}
