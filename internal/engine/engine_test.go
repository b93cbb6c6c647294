package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

func toy() (*mapspace.Space, *nest.Evaluator) {
	w := workload.MustVector1D("toy", 100)
	a := arch.ToyGLB(6, 512)
	return mapspace.New(w, a, mapspace.RubyS, mapspace.Constraints{FixedPerms: true}),
		nest.MustEvaluator(w, a)
}

// samples draws n mappings (with duplicates, by design of the small space).
func samples(sp *mapspace.Space, n int, seed int64) []*mapping.Mapping {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]*mapping.Mapping, n)
	for i := range ms {
		ms[i] = sp.Sample(rng)
	}
	return ms
}

func TestPassThroughMatchesEvaluator(t *testing.T) {
	sp, ev := toy()
	eng := New(ev)
	for _, m := range samples(sp, 50, 1) {
		got := eng.Evaluate(m)
		want := ev.Evaluate(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass-through cost differs: got %+v want %+v", got, want)
		}
	}
}

func TestCachedCostBitIdentical(t *testing.T) {
	sp, ev := toy()
	eng := Config{CacheEntries: 1 << 12}.New(ev)
	for _, m := range samples(sp, 200, 2) {
		fresh := ev.Evaluate(m)
		first := eng.Evaluate(m)
		second := eng.Evaluate(m) // guaranteed cache hit
		if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(second, fresh) {
			t.Fatalf("cached cost differs from model: model %+v first %+v second %+v", fresh, first, second)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	sp, ev := toy()
	met := &Counters{}
	eng := Config{CacheEntries: 1 << 12, Metrics: met}.New(ev)
	m := sp.Sample(rand.New(rand.NewSource(3)))
	eng.Evaluate(m)
	eng.Evaluate(m)
	eng.Evaluate(m)
	s := met.Snapshot()
	if s.Evaluations != 3 {
		t.Errorf("evaluations = %d, want 3", s.Evaluations)
	}
	if s.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", s.CacheHits)
	}
	if s.CacheHitRate < 0.6 || s.CacheHitRate > 0.7 {
		t.Errorf("cache hit rate = %f, want 2/3", s.CacheHitRate)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	sp, ev := toy()
	met := &Counters{}
	eng := Config{CacheEntries: 64, Metrics: met}.New(ev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, m := range samples(sp, 500, seed) {
				c := eng.Evaluate(m)
				if c.Valid && c.EDP <= 0 {
					t.Errorf("valid mapping with nonpositive EDP: %+v", c)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := met.Snapshot().Evaluations; got != 8*500 {
		t.Errorf("evaluations = %d, want %d", got, 8*500)
	}
}

func TestCacheResidencyBound(t *testing.T) {
	c := newMemoCache(64) // 4 per shard
	for i := 0; i < 10000; i++ {
		c.put([]byte(key(i)), nest.Cost{Valid: true})
	}
	// Generational eviction keeps at most cur+prev = 2x capacity per shard,
	// plus one slot of slack per shard for the entry that triggers rotation.
	if n, bound := c.len(), 2*64+cacheShards; n > bound {
		t.Errorf("resident entries = %d, want <= %d", n, bound)
	}
}

func TestCachePromotionSurvivesRotation(t *testing.T) {
	c := newMemoCache(cacheShards) // 1 entry per shard generation
	c.put([]byte("hot"), nest.Cost{Valid: true, Cycles: 42})
	// The insert of "hot" fills its shard and rotates it into prev; a get
	// must still find and re-promote it.
	if _, ok := c.get([]byte("hot")); !ok {
		t.Fatal("entry lost immediately after rotation")
	}
	if v, ok := c.get([]byte("hot")); !ok || v.Cycles != 42 {
		t.Fatalf("promoted entry lost or corrupted: %+v ok=%v", v, ok)
	}
}

func key(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('0'+i%10))
}

func TestEvaluateBatchMatchesSerial(t *testing.T) {
	sp, ev := toy()
	ms := samples(sp, 300, 4)
	serial := New(ev)
	got := New(ev).NewBatch(true, 8).Evaluate(context.Background(), ms)
	for i, m := range ms {
		want := serial.Evaluate(m)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestEvaluateBatchCancelled(t *testing.T) {
	sp, ev := toy()
	ms := samples(sp, 100, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := New(ev).NewBatch(true, 4).Evaluate(ctx, ms)
	if len(out) != len(ms) {
		t.Fatalf("batch length %d, want %d", len(out), len(ms))
	}
	for i := range out {
		if !Cancelled(&out[i]) {
			t.Fatalf("slot %d evaluated despite cancelled context: %+v", i, out[i])
		}
	}
}

// A Batch keeps its workers and result storage across calls: each call's
// results match the serial engine, whatever the previous call evaluated,
// and the workers (with their scratches) persist.
func TestBatchReuse(t *testing.T) {
	sp, ev := toy()
	serial := New(ev)
	for _, cacheEntries := range []int{0, 1 << 12} {
		b := Config{CacheEntries: cacheEntries}.New(ev).NewBatch(true, 4)
		var scratches []*nest.Scratch
		for call, n := range []int{300, 7, 256, 1, 0, 300} {
			ms := samples(sp, n, int64(10+call))
			got := b.Evaluate(context.Background(), ms)
			if len(got) != n {
				t.Fatalf("cache=%d call %d: %d results, want %d", cacheEntries, call, len(got), n)
			}
			for i, m := range ms {
				if want := serial.Evaluate(m); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("cache=%d call %d slot %d = %+v, want %+v", cacheEntries, call, i, got[i], want)
				}
			}
			for i, w := range b.workers {
				if i < len(scratches) && w.scratch != scratches[i] {
					t.Fatalf("cache=%d call %d: worker %d scratch rebuilt", cacheEntries, call, i)
				}
			}
			scratches = scratches[:0]
			for _, w := range b.workers {
				scratches = append(scratches, w.scratch)
			}
		}
	}
}

// A batch built without memo neither reads nor fills the engine's cache: it
// inserts nothing, and over a cache holding every mapping it hits nothing.
func TestBatchBypassesCache(t *testing.T) {
	sp, ev := toy()
	met := &Counters{}
	eng := Config{CacheEntries: 1 << 12, Metrics: met}.New(ev)
	ms := samples(sp, 200, 6)
	b := eng.NewBatch(false, 4)
	b.Evaluate(context.Background(), ms)
	if n := eng.cache.len(); n != 0 {
		t.Fatalf("uncached batch inserted %d cache entries", n)
	}
	for _, m := range ms {
		eng.Evaluate(m)
	}
	hits := met.Snapshot().CacheHits
	got := b.Evaluate(context.Background(), ms)
	if s := met.Snapshot(); s.CacheHits != hits {
		t.Fatalf("uncached batch hit the cache %d times", s.CacheHits-hits)
	}
	for i, m := range ms {
		if want := ev.Evaluate(m); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("slot %d = %+v, want %+v", i, got[i], want)
		}
	}
}

// A warm batch on a cache-less engine allocates nothing per mapping: at one
// worker nothing at all, in parallel one closure per goroutine it starts
// (the caller's goroutine is the first worker).
func TestBatchAllocs(t *testing.T) {
	sp, ev := toy()
	smp := sp.NewSampler()
	rng := rand.New(rand.NewSource(9))
	ms := make([]*mapping.Mapping, 256)
	for i := range ms {
		ms[i] = &mapping.Mapping{}
		smp.SampleInto(rng, ms[i])
	}
	for _, tc := range []struct{ workers, allocs int }{{1, 0}, {2, 1}, {4, 3}} {
		b := New(ev).NewBatch(true, tc.workers)
		b.Evaluate(context.Background(), ms)
		if allocs := testing.AllocsPerRun(20, func() { b.Evaluate(context.Background(), ms) }); allocs > float64(tc.allocs) {
			t.Errorf("workers=%d: warm batch allocates %v times, want <= %d", tc.workers, allocs, tc.allocs)
		}
	}
}
