package engine

import (
	"reflect"
	"sync"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// TestCacheKeyFailingLowering checks that a mapping that fails to lower gets
// the same verdict through a cache-enabled engine, on first and repeated
// evaluation and through both entry points, as through a cache-less one.
func TestCacheKeyFailingLowering(t *testing.T) {
	w := workload.MustMatmul("mm", 12, 6, 4)
	a := arch.ToyGLB(6, 512)
	ev := nest.MustEvaluator(w, a)
	broken := map[string]func(m *mapping.Mapping){
		"factor exceeds residual": func(m *mapping.Mapping) { m.Factors["M"][0] = 13 },
		"chain leaves residual":   func(m *mapping.Mapping) { m.Factors["N"][0] = 2 },
		"missing dimension":       func(m *mapping.Mapping) { delete(m.Factors, "K") },
		"short perm":              func(m *mapping.Mapping) { m.Perms[1] = m.Perms[1][:2] },
		"perm missing dim":        func(m *mapping.Mapping) { m.Perms[0][0] = m.Perms[0][1] },
	}
	for name, breakIt := range broken {
		m := mapping.Uniform(w, a, 0)
		breakIt(m)
		want := New(ev).Evaluate(m)
		if want.Valid {
			t.Fatalf("%s: broken mapping evaluated valid", name)
		}
		eng := Config{CacheEntries: 1 << 10}.New(ev)
		wk := eng.NewWorker()
		for i := 0; i < 2; i++ {
			if got := eng.Evaluate(m); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Engine.Evaluate #%d = %+v, want %+v", name, i, got, want)
			}
			if got := wk.EvaluateShared(m); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Worker.EvaluateShared #%d = %+v, want %+v", name, i, got, want)
			}
		}
	}
}

// TestCacheKeyMatchesStringKey checks that on sampler-drawn mappings the
// lowered-form cache key tells mappings apart exactly as the canonical
// string key does: two draws share one key iff they share the other. (The
// string key holds raw factors and the lowered key cumulative tiles; they
// agree because a sampled chain reaches the bound only by drawing the whole
// residual.)
func TestCacheKeyMatchesStringKey(t *testing.T) {
	w := workload.MustMatmul("mm", 12, 6, 4)
	for _, a := range []*arch.Arch{arch.ToyGLB(6, 512), arch.EyerissLike(14, 12, 128)} {
		ev := nest.MustEvaluator(w, a)
		eng := Config{CacheEntries: 1}.New(ev)
		for _, kind := range mapspace.Kinds {
			sp := mapspace.New(w, a, kind, mapspace.Constraints{ExploreBypass: true})
			byLow, byStr := map[string]string{}, map[string]string{}
			for i, m := range samples(sp, 3000, int64(kind)) {
				low, ok := eng.cacheKey(nil, m)
				if !ok {
					t.Fatalf("%s %v draw %d: sampled mapping has no cache key", a.Name, kind, i)
				}
				str := m.Key(w, ev.Slots)
				if prev, seen := byLow[string(low)]; seen && prev != str {
					t.Fatalf("%s %v draw %d: lowered key collides for distinct mappings\n%s\n%s", a.Name, kind, i, prev, str)
				}
				if prev, seen := byStr[str]; seen && prev != string(low) {
					t.Fatalf("%s %v draw %d: one mapping, two lowered keys: %s", a.Name, kind, i, str)
				}
				byLow[string(low)], byStr[str] = str, string(low)
			}
			if len(byLow) == 3000 {
				t.Errorf("%s %v: no repeated draw, so the check compared nothing", a.Name, kind)
			}
		}
	}
}

// TestCacheKeyWorkersConcurrent evaluates one draw sequence on several
// workers at once through a shared cache-enabled engine, each worker keying
// into its own buffer, and checks every result (hit or miss) is
// bit-identical to the cache-less model.
func TestCacheKeyWorkersConcurrent(t *testing.T) {
	sp, ev := toy()
	ms := samples(sp, 400, 9)
	want := make([]nest.Cost, len(ms))
	for i, m := range ms {
		want[i] = New(ev).Evaluate(m.Clone())
	}
	eng := Config{CacheEntries: 1 << 12}.New(ev)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := eng.NewWorker()
			for i, m := range ms {
				if got := wk.EvaluateShared(m.Clone()); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("mapping %d: cost %+v, want %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
