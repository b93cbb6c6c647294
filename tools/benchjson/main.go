// Command benchjson converts `go test -bench` output into a JSON benchmark
// record while echoing the raw output through, so `make bench` both shows
// results and persists them for cross-PR perf comparisons:
//
//	go test -run xxx -bench Evaluate . | go run ./tools/benchjson -o BENCH_eval.json
//
// Beyond the snapshot file it can append a dated record to a JSONL history
// (-history) and act as a CI regression gate (-baseline/-gate): with a gate
// pattern, named benchmarks are compared against the baseline snapshot and
// the run fails when ns/op regresses by more than -tolerance (default 20%)
// or a benchmark that was allocation-free gains allocations. A gate spec of
// the form Name:metric instead compares the named custom b.ReportMetric
// value (e.g. BenchmarkGuidedConverge:convergence_evals) under the same
// tolerance — how the guided mapper's evals-to-convergence is held flat.
//
// Repeated runs of one benchmark (go test -count N) fold into one entry:
// the fastest ns/op, and the highest B/op, allocs/op and custom metrics. So
// the ns/op gate reads the best of N samples, which a busy host perturbs
// less, while the allocation and metric gates stay strict.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark result row.
type Entry struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are -1 when the benchmark did not report
	// allocations.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric values keyed by their unit string
	// (e.g. "convergence_evals"); gate specs address them as Name:unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// historyRecord is one dated run in the JSONL history file.
type historyRecord struct {
	Date    string  `json:"date"`
	Entries []Entry `json:"entries"`
}

func main() {
	out := flag.String("o", "BENCH_eval.json", "output JSON path (empty skips the snapshot)")
	history := flag.String("history", "", "JSONL path to append a dated run record to")
	baseline := flag.String("baseline", "", "baseline snapshot (JSON array of entries) to gate against")
	gate := flag.String("gate", "", "comma-separated benchmark names that must not regress vs -baseline")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression for gated benchmarks")
	flag.Parse()

	var entries []Entry
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if e, ok := parseLine(line); ok {
			entries = append(entries, e)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("benchjson: %v", err)
	}
	if len(entries) == 0 {
		fatalf("benchjson: no benchmark lines seen")
	}
	entries = fold(entries)

	if *out != "" {
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fatalf("benchjson: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("benchjson: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d entries to %s\n", len(entries), *out)
	}

	if *history != "" {
		if err := appendHistory(*history, entries); err != nil {
			fatalf("benchjson: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: appended run record to %s\n", *history)
	}

	if *gate != "" {
		if *baseline == "" {
			fatalf("benchjson: -gate requires -baseline")
		}
		base, err := loadBaseline(*baseline)
		if err != nil {
			fatalf("benchjson: %v", err)
		}
		if failures := checkGate(entries, base, strings.Split(*gate, ","), *tolerance); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate passed for %s\n", *gate)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// appendHistory appends one dated JSONL record for this run.
func appendHistory(path string, entries []Entry) error {
	rec := historyRecord{Date: time.Now().UTC().Format(time.RFC3339), Entries: entries}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadBaseline reads a snapshot file written by -o and indexes it by name.
func loadBaseline(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	return byName, nil
}

// checkGate compares each gated benchmark against the baseline. A gated name
// missing from either side fails (a silently vanished benchmark must not
// pass the gate). A plain name gates ns/op regressions beyond tolerance and
// any allocation count above a previously allocation-free baseline; a
// Name:metric spec gates the named custom metric under the same tolerance
// instead, leaving wall time alone (the metric — e.g. the guided searcher's
// convergence_evals — is deterministic where the timing is not).
func checkGate(entries []Entry, base map[string]Entry, specs []string, tolerance float64) []string {
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	var failures []string
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, metric := spec, ""
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			name, metric = spec[:i], spec[i+1:]
		}
		cur, ok := byName[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not present in this run", name))
			continue
		}
		b, ok := base[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not present in baseline", name))
			continue
		}
		if metric != "" {
			curV, curOK := cur.Extra[metric]
			baseV, baseOK := b.Extra[metric]
			if !curOK || !baseOK {
				failures = append(failures, fmt.Sprintf("%s: metric %s missing (run: %t, baseline: %t)",
					name, metric, curOK, baseOK))
				continue
			}
			if baseV > 0 && curV > baseV*(1+tolerance) {
				failures = append(failures, fmt.Sprintf("%s: %.1f %s vs baseline %.1f (>%d%% regression)",
					name, curV, metric, baseV, int(tolerance*100)))
			}
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+tolerance) {
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f ns/op (>%d%% regression)",
				name, cur.NsPerOp, b.NsPerOp, int(tolerance*100)))
		}
		if b.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			failures = append(failures, fmt.Sprintf("%s: %v allocs/op vs allocation-free baseline",
				name, cur.AllocsPerOp))
		}
	}
	return failures
}

// fold merges repeated runs of a benchmark into one entry per name, in
// first-seen order: the fastest ns/op (with that run's iteration count),
// and the highest B/op, allocs/op and custom metric values.
func fold(entries []Entry) []Entry {
	var out []Entry
	index := make(map[string]int)
	for _, e := range entries {
		i, seen := index[e.Name]
		if !seen {
			index[e.Name] = len(out)
			e.Extra = maps.Clone(e.Extra)
			out = append(out, e)
			continue
		}
		f := &out[i]
		if e.NsPerOp < f.NsPerOp {
			f.NsPerOp, f.Iterations = e.NsPerOp, e.Iterations
		}
		f.BytesPerOp = max(f.BytesPerOp, e.BytesPerOp)
		f.AllocsPerOp = max(f.AllocsPerOp, e.AllocsPerOp)
		for unit, v := range e.Extra {
			if cur, ok := f.Extra[unit]; !ok || v > cur {
				if f.Extra == nil {
					f.Extra = make(map[string]float64)
				}
				f.Extra[unit] = v
			}
		}
	}
	return out
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkEvaluateCompiled-8   1440686   850.8 ns/op   0 B/op   0 allocs/op
func parseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp = v
			ok = true
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		case "MB/s":
			// Throughput scales with the machine; not a gateable metric.
		default:
			if e.Extra == nil {
				e.Extra = make(map[string]float64)
			}
			e.Extra[fields[i+1]] = v
		}
	}
	return e, ok
}
