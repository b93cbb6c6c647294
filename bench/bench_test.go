package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ruby/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{seq(4), 50, 2},     // rank ceil(2) = 2
		{seq(5), 50, 3},     // rank ceil(2.5) = 3
		{seq(100), 99, 99},  // rank 99
		{seq(101), 99, 100}, // rank ceil(99.99) = 100
		{seq(10), 100, 10},
		{seq(10), 0.1, 1}, // rank clamps to 1
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}}, // extrapolates, like Python
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90}, [3]float64{25, 50, 75}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one sample = %v %v %v, want 4 4 4", q1, q2, q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
	if got := geomean([]float64{0, -1}); got != 0 {
		t.Errorf("geomean of non-positive values = %g, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) sideStats { return statsOf([]float64{m * 0.99, m, m, m * 1.01}) }
	for _, tc := range []struct {
		name         string
		base, change sideStats
		higherBetter bool
		want         string
	}{
		{"unchanged", steady(100), steady(101), false, verdictWithin},
		{"slower beyond bound", steady(100), steady(120), false, verdictWorse},
		{"lower throughput beyond bound", steady(100), steady(80), true, verdictWorse},
		{"higher throughput", steady(100), steady(130), true, verdictWithin},
		{"noisy base", statsOf([]float64{60, 100, 140, 180}), steady(120), false, verdictUnresolved},
		{"noisy but every run better", statsOf([]float64{100, 150, 200, 250}), statsOf([]float64{10, 50, 90, 95}), false, verdictWithin},
	} {
		if _, got := verdict(tc.base, tc.change, tc.higherBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestSummarizeSpans checks self time on a tree whose children overlap (two
// layers searched in parallel) and nest, and that per-instance layer spans
// group by prefix.
func TestSummarizeSpans(t *testing.T) {
	spans := []obs.SpanRecord{
		{ID: 1, Name: "suite:Ruby-S", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "layer:a", Start: 10, Dur: 50}, // [10, 60)
		{ID: 3, Parent: 1, Name: "layer:b", Start: 30, Dur: 50}, // [30, 80), overlaps a
		{ID: 4, Parent: 2, Name: "search:random", Start: 15, Dur: 40},
		{ID: 5, Parent: 4, Name: "search:worker", Start: 20, Dur: 30},
		{ID: 6, Parent: 3, Name: "search:random", Start: 70, Dur: 20}, // overruns b's end
	}
	got := summarizeSpans(spans)
	want := map[string]spanStat{
		"suite:Ruby-S":  {Count: 1, Total: 100, Self: 100 - 70}, // union [10, 80)
		"layer:*":       {Count: 2, Total: 100, Self: (50 - 40) + (50 - 10)},
		"search:random": {Count: 2, Total: 60, Self: (40 - 30) + 20},
		"search:worker": {Count: 1, Total: 30, Self: 30},
	}
	if len(got) != len(want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %+v, want %+v", k, got[k], w)
		}
	}
}

func TestParseExposition(t *testing.T) {
	text := "# HELP ruby_evaluations_total x\n# TYPE ruby_evaluations_total counter\nruby_evaluations_total 42\n" +
		"ruby_eval_latency_seconds_bucket{le=\"0.001\"} 3\nruby_eval_latency_seconds_sum 1.5e-06\n" +
		"ruby_jobs{status=\"done\"} 2\n"
	got, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["ruby_evaluations_total"] != 42 || got["ruby_eval_latency_seconds_sum"] != 1.5e-06 {
		t.Errorf("parsed %v", got)
	}
	if _, err := parseExposition(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// TestBenchmarkDefinition keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloadList))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadList[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the program", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEndMetrics)
	check("per_layer", layer, layerMetrics)
}

// TestMetricValuesPrintAsFloats checks that every value in a result line is
// a floating-point literal (never an integer one such as 2899734788221315600
// or 0) and reads back bit for bit.
func TestMetricValuesPrintAsFloats(t *testing.T) {
	for _, v := range []float64{2899734788221315600, 0, 12, 0.24865653906551788, 1.5e-7, 421.3012057142857, 1e21} {
		line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"m": {Value: v, Unit: "pJ.cycles"}}})
		if err != nil {
			t.Fatal(err)
		}
		var raw struct {
			Metrics map[string]struct {
				Value json.RawMessage
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		num := string(raw.Metrics["m"].Value)
		if !strings.ContainsAny(num, ".e") {
			t.Errorf("%g printed as integer literal %s", v, num)
		}
		var back result
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Metrics["m"]; got.Value != v || got.Unit != "pJ.cycles" {
			t.Errorf("%g read back as %+v from %s", v, got, line)
		}
	}
	if _, err := json.Marshal(metricValue{Value: math.NaN()}); err == nil {
		t.Error("NaN marshalled without error")
	}
}

// smokeSize runs every workload's code path on a handful of small ops.
var smokeSize = sizing{
	setupReps:        1,
	maxRounds:        1,
	guidedPairs:      4,
	guidedEvals:      2000,
	serveRound:       8,
	serveEvals:       3000,
	networkEvals:     1000,
	networkWarmEvals: 500,
	fleetShapes:      []string{`{"name": "mm", "type": "matmul", "matmul": {"m": 12, "n": 6, "k": 4}}`},
	fleetPoll:        5 * time.Millisecond,
}

// TestSmoke runs every workload traced — one untraced and one traced round
// through the same code the benchmark runs — and requires every check to
// pass and every metric to be printed.
func TestSmoke(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && w.name == "fleet-exhaustive" {
				t.Skip("server.handleJobSubmit races with the job it starts (see race_on_test.go)")
			}
			cfg := runConfig{seed: 1, trace: true, workDir: t.TempDir(), traceDir: t.TempDir(), size: smokeSize}
			rep, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.wrong != nil {
				t.Fatalf("wrong answer: %v", rep.wrong)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d ops failed", rep.failed, rep.attempted)
			}
			var out bytes.Buffer
			res := printReport(&out, rep, cfg)
			for _, d := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
				if !strings.Contains(out.String(), d.name+" ") {
					t.Errorf("output lacks %s", d.name)
				}
			}
			for _, d := range endToEndMetrics {
				if v := rep.e2e[d.name]; !(v > 0) {
					t.Errorf("%s = %g, want > 0", d.name, v)
				}
			}
			if rep.layer["obs.dropped_spans"] != 0 {
				t.Errorf("%g spans dropped", rep.layer["obs.dropped_spans"])
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !last.Correct || len(last.Metrics) != len(layerMetrics) || len(res.Metrics) != len(layerMetrics) {
				t.Errorf("result object %+v", last)
			}
			if _, err := os.Stat(cfg.traceDir + "/" + w.name + ".json"); err != nil {
				t.Errorf("no Chrome trace: %v", err)
			}
		})
	}
}
