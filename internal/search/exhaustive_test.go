package search

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// naiveScan is the reference the in-place scan must reproduce: a serial
// walk of the enumeration that keeps every mapping (Enumerator.Next), runs
// each through the bare cost model and applies Exhaustive's strict
// improvement rule in enumeration order.
func naiveScan(t *testing.T, sp *mapspace.Space, ev *nest.Evaluator, shard mapspace.ChainRange, maxMappings int64) *Result {
	t.Helper()
	en := sp.NewEnumerator()
	if !shard.Empty() {
		if err := en.RestrictLeading(shard.Lo, shard.Hi); err != nil {
			t.Fatal(err)
		}
	}
	obj := Options{}.Objective
	res := &Result{}
	for m := en.Next(); m != nil; m = en.Next() {
		if maxMappings > 0 && res.Evaluated >= maxMappings {
			break
		}
		c := ev.Evaluate(m)
		res.Evaluated++
		if !c.Valid {
			continue
		}
		res.Valid++
		if res.Best == nil || obj.Value(&c) < obj.Value(&res.BestCost) {
			res.Best, res.BestCost = m, c
			res.Trace = append(res.Trace, TracePoint{Evals: res.Evaluated, Value: obj.Value(&c)})
		}
	}
	return res
}

// sameScan compares two scan results field for field: the best mapping's
// bytes, every BestCost field, the counters and the trace.
func sameScan(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Evaluated != want.Evaluated || got.Valid != want.Valid {
		t.Errorf("%s: counters (%d, %d), want (%d, %d)", name, got.Evaluated, got.Valid, want.Evaluated, want.Valid)
	}
	if (got.Best == nil) != (want.Best == nil) {
		t.Fatalf("%s: incumbent presence %v, want %v", name, got.Best != nil, want.Best != nil)
	}
	if got.Best != nil {
		gb, err := got.Best.Encode()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := want.Best.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Errorf("%s: best mapping\n%s\nwant\n%s", name, gb, wb)
		}
	}
	if !reflect.DeepEqual(got.BestCost, want.BestCost) {
		t.Errorf("%s: best cost\n%+v\nwant\n%+v", name, got.BestCost, want.BestCost)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s: trace\n%v\nwant\n%v", name, got.Trace, want.Trace)
	}
}

// scanCase is one space a scan is checked on.
type scanCase struct {
	name string
	sp   *mapspace.Space
	ev   *nest.Evaluator
}

func scanCases() []scanCase {
	a := arch.ToyGLB(6, 512)
	mm := workload.MustMatmul("mm", 12, 6, 4)
	cv := workload.MustConv2D(workload.Conv2DParams{Name: "cv", N: 2, M: 4, C: 3, P: 3, Q: 3, R: 2, S: 1})
	var out []scanCase
	for _, w := range []*workload.Workload{mm, cv} {
		for _, k := range []mapspace.Kind{mapspace.PFM, mapspace.Ruby, mapspace.RubyS, mapspace.RubyT} {
			out = append(out, scanCase{fmt.Sprintf("%s/%v", w.Name, k),
				mapspace.New(w, a, k, mapspace.Constraints{FixedPerms: true}), nest.MustEvaluator(w, a)})
		}
	}
	v := workload.MustVector1D("toy", 100)
	out = append(out, scanCase{"fused/Ruby-S", mapspace.New(v, a, mapspace.RubyS, mapspace.Constraints{
		FixedPerms: true, FuseTile: map[string]int{"X": 20}, FuseLevel: 1,
	}), nest.MustEvaluator(v, a)})
	return out
}

// The in-place, cache-bypassing scan must reproduce the naive serial scan
// bit for bit on every space, shard and cap, whatever the engine: with or
// without a memo cache, serial or parallel.
func TestExhaustiveMatchesNaiveScan(t *testing.T) {
	ctx := context.Background()
	for _, tc := range scanCases() {
		want := naiveScan(t, tc.sp, tc.ev, mapspace.ChainRange{}, 0)
		if want.Best == nil {
			t.Fatalf("%s: no valid mapping", tc.name)
		}
		for _, threads := range []int{1, 4} {
			for _, cacheEntries := range []int{0, 1 << 12} {
				name := fmt.Sprintf("%s threads=%d cache=%d", tc.name, threads, cacheEntries)
				eng := engine.Config{CacheEntries: cacheEntries}.New(tc.ev)
				sameScan(t, name, Exhaustive(ctx, tc.sp, eng, Options{Threads: threads}, 0), want)
			}
		}
	}

	// Every shard of a leading-dimension split, and caps that end mid-batch
	// (exhaustiveBatch is 256), on a parallel cached engine.
	tc := scanCases()[2] // mm/Ruby-S
	eng := engine.Config{CacheEntries: 1 << 12}.New(tc.ev)
	for _, n := range []int{3, 5} {
		for _, r := range tc.sp.ShardLeading(n) {
			name := fmt.Sprintf("%s shard [%d,%d)", tc.name, r.Lo, r.Hi)
			sameScan(t, name, Exhaustive(ctx, tc.sp, eng, Options{Threads: 4, Shard: r}, 0), naiveScan(t, tc.sp, tc.ev, r, 0))
		}
	}
	for _, capN := range []int64{1, 100, 300, 777} {
		name := fmt.Sprintf("%s cap %d", tc.name, capN)
		sameScan(t, name, Exhaustive(ctx, tc.sp, eng, Options{Threads: 4}, capN), naiveScan(t, tc.sp, tc.ev, mapspace.ChainRange{}, capN))
	}
	r := tc.sp.ShardLeading(3)[1]
	sameScan(t, "shard+cap", Exhaustive(ctx, tc.sp, eng, Options{Threads: 4, Shard: r}, 300), naiveScan(t, tc.sp, tc.ev, r, 300))
}

// An exhaustive scan neither reads nor fills the engine's memo cache: after
// a scan, the cache holds none of the scanned mappings, and a scan over a
// cache that holds all of them hits none.
func TestExhaustiveBypassesCache(t *testing.T) {
	tc := scanCases()[2]
	met := &engine.Counters{}
	eng := engine.Config{CacheEntries: 1 << 14, Metrics: met}.New(tc.ev)
	res := Exhaustive(context.Background(), tc.sp, eng, Options{Threads: 4}, 0)
	if s := met.Snapshot(); s.Evaluations != res.Evaluated || s.CacheHits != 0 {
		t.Fatalf("scan: %d evaluations, %d cache hits; want %d, 0", s.Evaluations, s.CacheHits, res.Evaluated)
	}
	// No inserts: evaluating every mapping through the cache misses each.
	tc.sp.Enumerate(func(m *mapping.Mapping) bool {
		eng.Evaluate(m)
		return true
	})
	if s := met.Snapshot(); s.CacheHits != 0 {
		t.Fatalf("the scan inserted %d of its mappings into the cache", s.CacheHits)
	}
	// No lookups: a second scan over the now-filled cache hits nothing.
	Exhaustive(context.Background(), tc.sp, eng, Options{Threads: 4}, 0)
	if s := met.Snapshot(); s.CacheHits != 0 || s.Evaluations != 3*res.Evaluated {
		t.Fatalf("second scan: %d cache hits, %d evaluations; want 0, %d", s.CacheHits, s.Evaluations, 3*res.Evaluated)
	}
}

// A kept incumbent must not alias the reused batch mappings, the batch's
// result storage or a worker scratch: later batches rewrite all three.
func TestExhaustiveResultsDetached(t *testing.T) {
	tc := scanCases()[6] // cv/Ruby-S: many batches, improvements past the first
	s := NewExhaustive(tc.sp, engine.New(tc.ev), Options{Threads: 2}, 0)
	type kept struct {
		m    *mapping.Mapping
		raw  []byte
		cost string
	}
	var held []kept
	for {
		done, err := s.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if b := s.Result().Best; b != nil && (len(held) == 0 || held[len(held)-1].m != b) {
			raw, _ := b.Encode()
			c, _ := json.Marshal(s.Result().BestCost)
			held = append(held, kept{b, raw, string(c)})
			for _, m := range s.batch {
				if m == b {
					t.Fatal("incumbent is a reused batch mapping")
				}
			}
		}
	}
	if len(held) < 2 {
		t.Fatalf("want improvements in at least two batches, got %d", len(held))
	}
	for i, k := range held {
		raw, _ := k.m.Encode()
		if string(raw) != string(k.raw) {
			t.Errorf("incumbent %d changed after later batches", i)
		}
	}
	last := held[len(held)-1]
	if c, _ := json.Marshal(s.Result().BestCost); string(c) != last.cost {
		t.Errorf("final best cost changed after later batches:\n%s\nwant\n%s", c, last.cost)
	}
}

// unbeatable is an incumbent cost no valid mapping improves on, so warm
// Steps measure the no-improvement path.
var unbeatable = nest.Cost{Valid: true, EDP: math.SmallestNonzeroFloat64}

// A warm exhaustive Step with no improvement allocates at most a small
// constant: the enumerator's position copy and one closure per goroutine
// the batch starts, never anything per mapping.
func TestExhaustiveStepAllocs(t *testing.T) {
	sp, ev := fleetShapeSpace()
	for _, workers := range []int{1, 2} {
		s := NewExhaustive(sp, engine.New(ev), Options{Threads: workers}, 0)
		start := s.en.Index()
		if _, err := s.Step(context.Background()); err != nil { // warm: lowerings, scratches, storage
			t.Fatal(err)
		}
		s.res.Best, s.res.BestCost = &mapping.Mapping{}, unbeatable
		allocs := testing.AllocsPerRun(20, func() {
			if err := s.en.SetIndex(start, false); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("workers=%d: warm Step allocates %v times, want <= 8", workers, allocs)
		}
	}
}

// A warm random Step with no improvement on a cache-less engine allocates
// at most a small constant: the batch's worker goroutines, nothing per
// sample or per batch.
func TestRandomStepAllocs(t *testing.T) {
	sp, ev := fleetShapeSpace()
	for _, workers := range []int{1, 2} {
		s := NewRandom(sp, engine.New(ev), Options{Seed: 5, Threads: workers, ConsecutiveNoImprove: 1 << 40})
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.res.Best, s.res.BestCost = &mapping.Mapping{}, unbeatable
		for i := 0; i < 3; i++ { // sampler and lowering storage settle
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("workers=%d: warm Step allocates %v times, want <= 4", workers, allocs)
		}
	}
}

// fleetShapeSpace is the first fleet-exhaustive shape (a 360x180x36 matmul,
// Ruby-S, on the Fig. 5 global-buffer toy).
func fleetShapeSpace() (*mapspace.Space, *nest.Evaluator) {
	w := workload.MustMatmul("mm360x180x36", 360, 180, 36)
	a := arch.ToyGLB(6, 512)
	return mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{}), nest.MustEvaluator(w, a)
}
