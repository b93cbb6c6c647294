// Command bench is the repository's end-to-end benchmark: it drives four
// user paths of the mapper — guided mapping, POST /v1/search, fused
// ResNet-50 network search and a sharded exhaustive fleet — through the
// public functions of each layer, checks every answer, and prints the
// end-to-end metrics (or, traced, the per-layer metrics) by name and unit.
//
//	go run ./bench -seed 1                          # all workloads, untraced
//	go run ./bench -workload serve-search -seed 2   # one workload
//	go run ./bench -seed 1 -trace 1 -trace-dir DIR  # per-layer metrics + Chrome traces
//	go run ./bench -seed 1 -out runs.jsonl          # append results for -compare
//	go run ./bench -compare base.jsonl change.jsonl # verdict per (workload, metric)
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. A wrong answer exits with status 1. See
// bench/README.md for the metric definitions and the workloads' rationale.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// workloadList is the benchmark's workloads in run order.
var workloadList = []*benchWorkload{
	{name: "map-guided", calibrated: true, start: startGuided},
	{name: "serve-search", calibrated: true, start: startServe},
	{name: "network-fused", calibrated: true, start: startNetwork},
	// A fleet run is mostly its fixed 200 ms poll ticks.
	{name: "fleet-exhaustive", calibrated: false, start: startFleet},
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics, in the same order, with their bounds.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by untraced runs (see README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"evals_per_s", "evals/s", "higher"},
	{"edp_geomean", "pJ.cycles", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// layerMetrics are printed by traced runs. A metric of a layer a workload
// does not exercise reads 0 on that workload.
var layerMetrics = []metricDef{
	{"search.construct_frac", "frac", "lower"},
	{"search.step_frac", "frac", "lower"},
	{"search.steps_per_op", "count", "lower"},
	{"search.convergence_evals", "count", "lower"},
	{"search.guided_moves_per_op", "count", "lower"},
	{"search.guided_restarts_per_op", "count", "lower"},
	{"search.alloc_kb_per_op", "KB", "lower"},
	{"mapspace.new_frac", "frac", "lower"},
	{"mapspace.valid_frac", "frac", "higher"},
	{"nest.compile_frac", "frac", "lower"},
	{"nest.evals_per_op", "count", "lower"},
	{"nest.eval_ns", "ns", "lower"},
	{"nest.fused_evals_per_op", "count", "lower"},
	{"engine.cache_hit_frac", "frac", "higher"},
	{"engine.batch_frac", "frac", "lower"},
	{"engine.batch_size", "count", "higher"},
	{"engine.panics", "count", "lower"},
	{"sweep.layers_frac", "frac", "lower"},
	{"sweep.segments_frac", "frac", "lower"},
	{"sweep.parallel_eff", "frac", "higher"},
	{"sweep.segments_kept_frac", "frac", "higher"},
	{"sweep.layer_self_frac", "frac", "lower"},
	{"server.search_frac", "frac", "higher"},
	{"server.small_p50_frac", "frac", "lower"},
	{"server.large_p50_frac", "frac", "lower"},
	{"server.resp_kb", "KB", "lower"},
	{"dist.fleet_vs_local", "x", "lower"},
	{"dist.idle_frac", "frac", "lower"},
	{"dist.http_requests_per_op", "count", "lower"},
	{"dist.requeues", "count", "lower"},
	{"checkpoint.state_kb_per_op", "KB", "lower"},
	{"obs.trace_overhead_frac", "frac", "lower"},
	{"obs.dropped_spans", "count", "lower"},
}

// fullSize is the benchmark's sizing (README.md explains the choice).
var fullSize = sizing{
	setupReps:        3,
	guidedEvals:      20000,
	serveRound:       140,
	serveEvals:       3000,
	networkEvals:     20000,
	networkWarmEvals: 2000,
	fleetShapes:      fleetShapes,
	fleetPoll:        200 * time.Millisecond,
}

// workDir holds the runs' scratch state (worker state directories),
// relative to the working directory; each run removes what it wrote.
const workDir = ".bench_build/work"

// result is the JSON object every run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes the value so that every JSON reader takes it for a
// floating-point number with all its digits: encoding/json would print a
// whole or large float64 — a network EDP of 2.9e18 pJ.cycles, a count of 0 —
// as an integer literal.
func (m metricValue) MarshalJSON() ([]byte, error) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return nil, fmt.Errorf("metric value %v is not a finite number", m.Value)
	}
	num := strconv.FormatFloat(m.Value, 'g', -1, 64)
	if !strings.ContainsAny(num, ".e") {
		num += ".0"
	}
	unit, err := json.Marshal(m.Unit)
	if err != nil {
		return nil, err
	}
	return []byte(`{"value":` + num + `,"unit":` + string(unit) + `}`), nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (map-guided | serve-search | network-fused | fleet-exhaustive; empty = all)")
		seed     = flag.Int64("seed", 1, "seed every input order and per-op search seed derives from")
		seconds  = flag.Float64("seconds", 20, "measured window per workload in seconds (whole rounds, at least one)")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics: half the window untraced, half traced")
		traceDir = flag.String("trace-dir", "", "with -trace 1, write one Chrome trace per workload into this directory")
		out      = flag.String("out", "", "append one JSON line per workload result to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files (base, change) under BENCHMARK.json's bounds and exit")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files: base and change"))
		}
		if err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	list := workloadList
	if *name != "" {
		list = nil
		for _, w := range workloadList {
			if w.name == *name {
				list = []*benchWorkload{w}
			}
		}
		if list == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceDir: *traceDir, workDir: workDir, size: fullSize,
	}

	ctx := context.Background()
	correct := true
	for _, w := range list {
		rep, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fatal(err)
		}
		res := printReport(os.Stdout, rep, cfg)
		if *out != "" {
			if err := appendResult(*out, runRecord{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Result: res}); err != nil {
				fatal(err)
			}
		}
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// resultOf builds a run's result object: the end-to-end metrics, or the
// per-layer ones when traced.
func resultOf(rep *report) result {
	defs, vals := endToEndMetrics, rep.e2e
	if rep.traced != nil {
		defs, vals = layerMetrics, rep.layer
	}
	res := result{
		Correct: rep.wrong == nil, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// printReport prints a workload's metrics for people, then its result
// object as the last line, and returns the result.
func printReport(out io.Writer, rep *report, cfg runConfig) result {
	w := rep.plain
	fmt.Fprintf(out, "%s  seed %d  %d ops in %d rounds over %.1fs untraced\n",
		rep.workload, cfg.seed, len(w.samples), w.rounds, w.wall.Seconds())
	ops := "op times calibrated"
	if !rep.calibrated {
		ops = "op times raw"
	}
	fmt.Fprintf(out, "  machine slowdown (reference loop vs %v): set-up %.3f, window %.3f; %s\n",
		refNominal, rep.setupSlow, slowdown(w.refs), ops)
	for _, d := range endToEndMetrics {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, rep.e2e[d.name], d.unit)
	}
	if n := len(w.samples); beyond(n, 99) < 10 {
		fmt.Fprintf(out, "  note: p99 rests on %d samples beyond it; the highest percentile with 10 beyond is p%g (p0 = none)\n",
			beyond(n, 99), tailPercentile(n))
	}
	if t := rep.traced; t != nil {
		fmt.Fprintf(out, "  traced: %d ops in %d rounds over %.1fs\n", len(t.samples), t.rounds, t.wall.Seconds())
		for _, d := range layerMetrics {
			fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, rep.layer[d.name], d.unit)
		}
	}
	if rep.wrong != nil {
		fmt.Fprintf(out, "  WRONG ANSWER: %v\n", rep.wrong)
	}
	res := resultOf(rep)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(line))
	return res
}

// runRecord is one line of an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendResult(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
