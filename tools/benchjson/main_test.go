package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkGuidedConverge-8   \t  100\t  2500000 ns/op\t  4100 convergence_evals\t 438000 B/op\t 5950 allocs/op")
	want := Entry{Name: "BenchmarkGuidedConverge", Iterations: 100, NsPerOp: 2500000,
		BytesPerOp: 438000, AllocsPerOp: 5950, Extra: map[string]float64{"convergence_evals": 4100}}
	if !ok || !reflect.DeepEqual(e, want) {
		t.Errorf("parseLine = %+v, %v; want %+v", e, ok, want)
	}
	e, ok = parseLine("BenchmarkEvaluateCompiled   1440686   850.8 ns/op   12.5 MB/s")
	if !ok || e.Name != "BenchmarkEvaluateCompiled" || e.NsPerOp != 850.8 || e.AllocsPerOp != -1 || e.Extra != nil {
		t.Errorf("parseLine without -benchmem = %+v, %v", e, ok)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"BenchmarkX-8 notanumber 1 ns/op",
		"BenchmarkX-8 10 1 B/op 0 allocs/op", // no ns/op
		"ok  	ruby	12.3s",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

func TestFoldKeepsBestTimeAndWorstCounts(t *testing.T) {
	var entries []Entry
	for _, line := range []string{
		"BenchmarkA-8  100  900 ns/op  0 B/op  0 allocs/op",
		"BenchmarkB-8  10  5000 ns/op  4000 convergence_evals  64 B/op  2 allocs/op",
		"BenchmarkA-8  120  800 ns/op  16 B/op  1 allocs/op",
		"BenchmarkB-8  12  6000 ns/op  4200 convergence_evals  32 B/op  1 allocs/op",
		"BenchmarkA-8  110  850 ns/op  0 B/op  0 allocs/op",
	} {
		e, ok := parseLine(line)
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		entries = append(entries, e)
	}
	got := fold(entries)
	want := []Entry{
		{Name: "BenchmarkA", Iterations: 120, NsPerOp: 800, BytesPerOp: 16, AllocsPerOp: 1},
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 5000, BytesPerOp: 64, AllocsPerOp: 2,
			Extra: map[string]float64{"convergence_evals": 4200}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold =\n%+v\nwant\n%+v", got, want)
	}
	if entries[1].Extra["convergence_evals"] != 4000 {
		t.Error("fold modified its input's metrics")
	}
	if one := fold(entries[:1]); !reflect.DeepEqual(one, entries[:1]) {
		t.Errorf("fold of a single run = %+v", one)
	}
}

func TestCheckGate(t *testing.T) {
	base := map[string]Entry{
		"BenchmarkFast": {Name: "BenchmarkFast", NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkConv": {Name: "BenchmarkConv", NsPerOp: 1e6, AllocsPerOp: 10,
			Extra: map[string]float64{"convergence_evals": 4000}},
	}
	cases := []struct {
		name    string
		run     []Entry
		specs   []string
		failing []string // substrings, one per expected failure
	}{
		{"within tolerance",
			[]Entry{{Name: "BenchmarkFast", NsPerOp: 1190}},
			[]string{"BenchmarkFast"}, nil},
		{"time regression",
			[]Entry{{Name: "BenchmarkFast", NsPerOp: 1300}},
			[]string{"BenchmarkFast"}, []string{"ns/op"}},
		{"allocation on an allocation-free baseline",
			[]Entry{{Name: "BenchmarkFast", NsPerOp: 900, AllocsPerOp: 1}},
			[]string{"BenchmarkFast"}, []string{"allocation-free"}},
		{"metric gate ignores time",
			[]Entry{{Name: "BenchmarkConv", NsPerOp: 9e6, AllocsPerOp: 20, Extra: map[string]float64{"convergence_evals": 4500}}},
			[]string{" BenchmarkConv:convergence_evals ", ""}, nil},
		{"metric regression",
			[]Entry{{Name: "BenchmarkConv", NsPerOp: 1e6, Extra: map[string]float64{"convergence_evals": 5000}}},
			[]string{"BenchmarkConv:convergence_evals"}, []string{"convergence_evals vs baseline"}},
		{"metric missing",
			[]Entry{{Name: "BenchmarkConv", NsPerOp: 1e6}},
			[]string{"BenchmarkConv:convergence_evals"}, []string{"missing"}},
		{"benchmark missing from the run and the baseline",
			[]Entry{{Name: "BenchmarkNew", NsPerOp: 1}},
			[]string{"BenchmarkFast", "BenchmarkNew"}, []string{"not present in this run", "not present in baseline"}},
	}
	for _, c := range cases {
		got := checkGate(c.run, base, c.specs, 0.20)
		if len(got) != len(c.failing) {
			t.Errorf("%s: failures %q, want %d", c.name, got, len(c.failing))
			continue
		}
		for i, sub := range c.failing {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: failure %q does not mention %q", c.name, got[i], sub)
			}
		}
	}
}
