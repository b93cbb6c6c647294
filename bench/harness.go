package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ruby/internal/obs"
)

// benchWorkload is one user path the benchmark drives.
type benchWorkload struct {
	name string
	// calibrated marks a compute-bound workload, whose host times are
	// divided by the run's slowdown (see calibrate.go). A workload whose
	// time is mostly fixed waiting reports raw host times: the machine's
	// speed barely moves them.
	calibrated bool
	// start builds the workload's fixtures, servers and references and runs
	// one untimed warm-up pass over its distinct inputs: everything before
	// the first timed op, which setup_s measures.
	start func(ctx context.Context, e *env) (runner, error)
}

// env is what a workload is built from.
type env struct {
	seed int64
	size sizing
	// dir is a scratch directory the workload may write to; it is removed
	// when the run ends.
	dir string
}

// runner executes a started workload.
type runner interface {
	// round runs round r's ops in order and returns one sample per op. A
	// round is the workload's full input mix, so every measured window
	// holds whole mixes; its inputs, order and per-op seeds derive only
	// from the run's seed and r. A ctx carrying an obs.Recorder marks the
	// traced half of a run: the runner then records spans (the op root is
	// named "op") and gathers what layers reports.
	round(ctx context.Context, r int) []sample
	// layers computes the per-layer metrics of the traced rounds.
	layers(ctx context.Context, w *window, spans map[string]spanStat) map[string]float64
	// check verifies every answer gathered so far (including checks
	// deferred past the timed window) and returns the first wrong one.
	check() error
	close()
}

// sample is one timed op.
type sample struct {
	dur time.Duration
	// evals counts the model evaluations the op performed.
	evals int64
	// edp is the simulated energy-delay product of the op's answer.
	edp float64
	// class labels the op's input class where a workload mixes classes.
	class  string
	failed bool
}

// sizing fixes how much work one op and one round do. The benchmark runs
// fullSize; the smoke test runs the same code on a smaller one.
type sizing struct {
	setupReps int
	// maxRounds caps the rounds per window (0 = rounds until the window
	// closes).
	maxRounds int
	// guidedPairs limits map-guided to the first (layer, arch) pairs (0 =
	// all); guidedEvals caps each guided search.
	guidedPairs int
	guidedEvals int64
	// serveRound is the number of /v1/search requests per round, a multiple
	// of 4; serveEvals caps each request's search.
	serveRound int
	serveEvals int64
	// networkEvals caps each layer search of a network op; networkWarmEvals
	// caps the warm-up op's.
	networkEvals, networkWarmEvals int64
	// fleetShapes are the workload JSON payloads fleet-exhaustive cycles
	// through; fleetPoll is the fleet's poll interval.
	fleetShapes []string
	fleetPoll   time.Duration
}

// spanCapacity sizes the traced half's recorder. The busiest workload
// records about 100 spans per op and under 10k per traced half, so the ring
// never wraps (obs.dropped_spans reports it if it ever does).
const spanCapacity = 1 << 18

// window is one measured interval of whole rounds.
type window struct {
	samples []sample
	// wall is the rounds' summed wall time (the reference loops between
	// rounds excluded).
	wall   time.Duration
	alloc  uint64 // bytes allocated by the process during the window
	rounds int
	refs   []time.Duration // reference-loop times, refPerRound per round
}

// measure runs whole rounds, starting at round first, until d has elapsed
// (at least one round; at most size.maxRounds when set), timing the
// reference loop before each round.
func measure(ctx context.Context, run runner, d time.Duration, first int, size sizing) *window {
	buf := make([]float64, refBufLen)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	w := &window{}
	start := time.Now()
	for r := first; ; r++ {
		for i := 0; i < refPerRound; i++ {
			w.refs = append(w.refs, referenceLoop(buf))
		}
		roundStart := time.Now()
		w.samples = append(w.samples, run.round(ctx, r)...)
		w.wall += time.Since(roundStart)
		w.rounds++
		if time.Since(start) >= d || (size.maxRounds > 0 && w.rounds >= size.maxRounds) {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - alloc0
	return w
}

// latenciesMS returns the window's per-op wall times in milliseconds.
func (w *window) latenciesMS() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.dur) / 1e6
	}
	return out
}

// opSeconds is the summed wall time of the window's ops.
func (w *window) opSeconds() float64 {
	var t time.Duration
	for _, s := range w.samples {
		t += s.dur
	}
	return t.Seconds()
}

func (w *window) evals() int64 {
	var n int64
	for _, s := range w.samples {
		n += s.evals
	}
	return n
}

// endToEnd computes the end-to-end metrics of an untraced window, given the
// (calibrated) set-up time. The window's host times are divided, and its
// rates multiplied, by slow (1 = raw).
func endToEnd(w *window, setupS, slow float64) map[string]float64 {
	var edps []float64
	for _, s := range w.samples {
		if !s.failed {
			edps = append(edps, s.edp)
		}
	}
	lat := w.latenciesMS()
	n := float64(len(w.samples))
	return map[string]float64{
		"setup_s":          setupS,
		"latency_p50_ms":   percentile(lat, 50) / slow,
		"latency_p99_ms":   percentile(lat, 99) / slow,
		"throughput_ops_s": n / w.wall.Seconds() * slow,
		"evals_per_s":      float64(w.evals()) / w.wall.Seconds() * slow,
		"edp_geomean":      geomean(edps),
		"alloc_mb_per_op":  float64(w.alloc) / 1e6 / n,
	}
}

// hostScale is the divisor of w's host times: its slowdown for a calibrated
// workload, else 1.
func hostScale(w *window, calibrated bool) float64 {
	if calibrated {
		return slowdown(w.refs)
	}
	return 1
}

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string // Chrome traces of the traced halves go here ("" = none)
	workDir  string // parent of the run's scratch directory
	size     sizing
}

// report is one workload run's outcome.
type report struct {
	workload   string
	calibrated bool
	setups     []float64
	plain      *window
	setupSlow  float64 // machine slowdown during set-up, setup_s's divisor
	slow       float64 // divisor of the plain window's host times (1 = raw)
	traced     *window // nil unless traced
	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	wrong      error // first wrong answer; nil when every check passed
}

// runWorkload sets the workload up cfg.size.setupReps times (setup_s is the
// median, calibrated on every workload: set-up is compute work everywhere),
// then measures it for cfg.seconds with tracing off — or, traced, for half
// that untraced and half with an obs.Recorder on the context.
func runWorkload(ctx context.Context, w *benchWorkload, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{workload: w.name, calibrated: w.calibrated}
	var run runner
	var refs []time.Duration
	buf := make([]float64, refBufLen)
	for i := 0; i < max(cfg.size.setupReps, 1); i++ {
		if run != nil {
			run.close()
		}
		for k := 0; k < refPerRound; k++ {
			refs = append(refs, referenceLoop(buf))
		}
		e := &env{seed: cfg.seed, size: cfg.size, dir: filepath.Join(dir, fmt.Sprintf("setup-%d", i))}
		if err := os.Mkdir(e.dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		run, err = w.start(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		rep.setups = append(rep.setups, time.Since(start).Seconds())
	}
	defer run.close()

	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	rep.plain = measure(ctx, run, d, 0, cfg.size)
	rep.slow = hostScale(rep.plain, w.calibrated)
	rep.setupSlow = slowdown(refs)
	rep.e2e = endToEnd(rep.plain, median(rep.setups)/rep.setupSlow, rep.slow)
	windows := []*window{rep.plain}
	if cfg.trace {
		rec := obs.NewRecorder(spanCapacity)
		rep.traced = measure(obs.WithRecorder(ctx, rec), run, d, rep.plain.rounds, cfg.size)
		windows = append(windows, rep.traced)
		rep.layer = run.layers(ctx, rep.traced, summarizeSpans(rec.Spans()))
		base := percentile(rep.plain.latenciesMS(), 50) / rep.slow
		traced := percentile(rep.traced.latenciesMS(), 50) / hostScale(rep.traced, w.calibrated)
		rep.layer["obs.trace_overhead_frac"] = ratio(traced-base, base)
		rep.layer["obs.dropped_spans"] = float64(rec.Dropped())
		if cfg.traceDir != "" {
			if err := writeTrace(cfg.traceDir, w.name, rec); err != nil {
				return nil, err
			}
		}
	}
	for _, win := range windows {
		for _, s := range win.samples {
			rep.attempted++
			if s.failed {
				rep.failed++
			}
		}
	}
	rep.wrong = run.check()
	return rep, nil
}

// writeTrace writes the recorder's spans as dir/<workload>.json in Chrome
// trace format.
func writeTrace(dir, name string, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
