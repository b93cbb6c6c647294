package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json -compare reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of a (workload, metric) comparison.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// sideStats summarizes one side's runs of a metric.
type sideStats struct {
	vals       []float64
	q1, q2, q3 float64
}

func statsOf(vals []float64) sideStats {
	q1, q2, q3 := quartiles(vals)
	return sideStats{vals: vals, q1: q1, q2: q2, q3: q3}
}

// spread is the interquartile range as a share of the median.
func (s sideStats) spread() float64 { return ratio(s.q3-s.q1, s.q2) }

// verdict judges change against base for a metric where higher is better
// when higherBetter, under bound (the share of base's median by which the
// metric may worsen). A spread wider than the bound on either side leaves
// the comparison unresolved — unless every change run beats every base run.
func verdict(base, change sideStats, higherBetter bool, bound float64) (worsening float64, v string) {
	worsening = ratio(change.q2-base.q2, base.q2)
	if higherBetter {
		worsening = ratio(base.q2-change.q2, base.q2)
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	allBetter := len(base.vals) > 0 && len(change.vals) > 0
	for _, c := range change.vals {
		for _, b := range base.vals {
			allBetter = allBetter && better(c, b)
		}
	}
	switch {
	case allBetter:
		return worsening, verdictWithin
	case max(base.spread(), change.spread()) > bound:
		return worsening, verdictUnresolved
	case worsening > bound:
		return worsening, verdictWorse
	default:
		return worsening, verdictWithin
	}
}

// runCompare prints one verdict row per (workload, end-to-end metric) for the
// untraced runs in the base and change result files.
func runCompare(out io.Writer, defPath, basePath, changePath string) error {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-17s %-17s %5s %14s %14s %9s %9s %9s  %s\n",
		"workload", "metric", "runs", "base median", "change median", "worse by", "spread", "bound", "verdict")
	worse := 0
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, c := base[w.Name][m.Name], change[w.Name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			sb, sc := statsOf(b), statsOf(c)
			by, v := verdict(sb, sc, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(out, "%-17s %-17s %2d/%-2d %14.6g %14.6g %8.1f%% %8.1f%% %8.1f%%  %s\n",
				w.Name, m.Name, len(b), len(c), sb.q2, sc.q2, 100*by,
				100*max(sb.spread(), sc.spread()), 100*m.Bound, v)
		}
	}
	fmt.Fprintf(out, "%d worse\n", worse)
	return nil
}

// readRuns loads an -out file's untraced runs as metric values by workload
// and metric name.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, mv := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], mv.Value)
		}
	}
	return out, sc.Err()
}
