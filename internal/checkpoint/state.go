package checkpoint

import (
	"encoding/json"

	"ruby/internal/nest"
)

// KindSearch tags single-search snapshots (search.Searcher Snapshot/Restore).
const KindSearch = "search"

// KindSuite tags per-layer suite-progress snapshots (sweep.SuiteCheckpoint).
const KindSuite = "suite"

// KindJob tags server job records (internal/server persistence).
const KindJob = "job"

// KindShards tags distributed shard-plan state (internal/dist coordinator
// persistence: the plan plus per-shard progress and held snapshots).
const KindShards = "shards"

// TracePoint is one incumbent-improvement event: after Evals evaluated
// mappings the best objective value dropped to Value. search.TracePoint is
// an alias of it, so search results and snapshots share one form.
type TracePoint struct {
	Evals int64   `json:"evals"`
	Value float64 `json:"value"`
}

// SearchState is the complete serialized state of one resumable search: the
// RNG, the counters that drive the termination criteria, and the incumbent.
// Restoring it into a fresh searcher of the same algorithm over the same
// (workload, architecture, mapspace, options) continues the run as if it had
// never stopped.
//
//ruby:serialstable
type SearchState struct {
	// Algo names the searcher that wrote the snapshot ("random", "guided",
	// "hillclimb", "anneal", "genetic" or "exhaustive"); Restore rejects a
	// mismatch.
	Algo string `json:"algo"`
	// Done marks a search that ran to completion (resuming it is a no-op).
	Done bool `json:"done,omitempty"`
	// RNG is the serialized draw state of the searchers that draw from one
	// RNG (hill climb, anneal, guided, genetic). It is nil for the
	// exhaustive scan, which draws nothing, and for random search, whose
	// draw k is seeded from (seed, k), so Evaluated is its draw position;
	// a random snapshot that carries one was written under the old serial
	// draw scheme and is rejected on restore.
	RNG *RNG `json:"rng,omitempty"`

	// Evaluated, Valid and NoImprove are the search counters at the
	// snapshot point: total evaluations performed, how many were valid, and
	// the consecutive-non-improving-valid run driving the paper's
	// termination criterion.
	Evaluated int64 `json:"evaluated"`
	Valid     int64 `json:"valid"`
	NoImprove int64 `json:"no_improve,omitempty"`

	// Warmed records that warm-up work preceding the main loop has run (the
	// random searcher's warm-start evaluation).
	Warmed bool `json:"warmed,omitempty"`
	// WarmupLeft is the hill-climber's (and annealer's) remaining warm-up
	// samples.
	WarmupLeft int `json:"warmup_left,omitempty"`
	// Fails is the hill-climber's consecutive-rejected-proposal count.
	Fails int `json:"fails,omitempty"`
	// Temp is the annealer's current temperature (0 until its warm-up ends).
	Temp float64 `json:"temp,omitempty"`

	// Phase, Restarts and SinceBest are the model-guided searcher's state:
	// its current phase ("seed" or "sweep"), the perturbation restarts
	// taken, and the restarts since the incumbent last improved.
	Phase     string `json:"phase,omitempty"`
	Restarts  int64  `json:"restarts,omitempty"`
	SinceBest int64  `json:"since_best,omitempty"`
	// Cur is the working mapping (mapping JSON) of the guided searcher,
	// which diverges from Best after a perturbation restart, and of the
	// annealer, which diverges from Best whenever it accepts a worsening
	// move.
	Cur json.RawMessage `json:"cur,omitempty"`

	// Population is the genetic searcher's current generation (mapping
	// JSON each, in population order); Restore re-derives its fitness.
	Population []json.RawMessage `json:"population,omitempty"`

	// Enumerated counts mappings taken from the exhaustive enumeration;
	// EnumIndex/EnumDone are the enumerator's odometer position.
	Enumerated int64 `json:"enumerated,omitempty"`
	EnumIndex  []int `json:"enum_index,omitempty"`
	EnumDone   bool  `json:"enum_done,omitempty"`

	// Best is the incumbent mapping (mapping JSON; nil when nothing valid
	// has been found) and BestCost its full evaluated cost.
	Best     json.RawMessage `json:"best,omitempty"`
	BestCost *nest.Cost      `json:"best_cost,omitempty"`
	// Trace holds the improvement events recorded so far (only when the
	// search keeps a trace).
	Trace []TracePoint `json:"trace,omitempty"`
}

// LayerState is one completed layer inside a SuiteState: the winning mapping
// and its cost, plus the search counters, so a resumed suite reproduces its
// totals without re-searching.
type LayerState struct {
	Done      bool            `json:"done"`
	Mapping   json.RawMessage `json:"mapping,omitempty"`
	Cost      *nest.Cost      `json:"cost,omitempty"`
	Evaluated int64           `json:"evaluated,omitempty"`
	Valid     int64           `json:"valid,omitempty"`
	// PadBounds records the dimension bounds of the winning padded workload
	// variant when a padding strategy won with a variant different from the
	// original layer (empty otherwise). The resuming run re-derives the
	// variant from these bounds.
	PadBounds map[string]int `json:"pad_bounds,omitempty"`
}

// SegmentState is one fused-segment search outcome inside a SuiteState: the
// producer and consumer mappings the fused evaluation won with and its
// combined metrics, or — when Fused is false — a completed search that found
// no pair beating the per-layer baseline, so resumed runs skip the edge
// instead of re-searching it.
type SegmentState struct {
	Done  bool `json:"done"`
	Fused bool `json:"fused,omitempty"`
	// Producer and Consumer are the winning mappings (mapping JSON; empty
	// when Fused is false).
	Producer json.RawMessage `json:"producer,omitempty"`
	Consumer json.RawMessage `json:"consumer,omitempty"`
	// Cycles, EnergyPJ, EDP and ElidedWords mirror the recorded
	// nest.FusedCost; the resuming run re-evaluates the mappings and rejects
	// the entry unless they reproduce bit-for-bit.
	Cycles      float64 `json:"cycles,omitempty"`
	EnergyPJ    float64 `json:"energy_pj,omitempty"`
	EDP         float64 `json:"edp,omitempty"`
	ElidedWords float64 `json:"elided_words,omitempty"`
	Evaluated   int64   `json:"evaluated,omitempty"`
}

// SuiteState is the per-layer progress of a suite run (or of several: keys
// include architecture, strategy and search budget, so one file can back a
// whole experiment). Completed layers are skipped on resume. Segments holds
// fused-segment outcomes of network searches, keyed like layers plus the
// edge's producer->consumer pair.
//
//ruby:serialstable
type SuiteState struct {
	Layers   map[string]*LayerState   `json:"layers"`
	Segments map[string]*SegmentState `json:"segments,omitempty"`
}
