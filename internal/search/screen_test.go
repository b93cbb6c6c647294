package search

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workloads"
)

// screenDraws is how many seeded draws per space the screen test redraws
// unscreened: fewer under the race detector, which slows the model tenfold.
func screenDraws() int64 {
	if raceEnabled {
		return 300
	}
	return 3000
}

// screenSpaces are the cache goldens' 44 spaces plus a fused one.
func screenSpaces() map[string]*mapspace.Space {
	out := cacheGoldenSpaces()
	l := workloads.ResNet50()[3]
	cons := mapspace.EyerissRowStationary(l.Work)
	cons.FuseTile, cons.FuseLevel = map[string]int{"P": 6, "Q": 4, "M": 48}, 1
	out[l.Name+"/eyeriss-fuse/Ruby-S"] = mapspace.New(l.Work, arch.EyerissLike(14, 12, 128), mapspace.RubyS, cons)
	return out
}

// TestSamplerScreenSoundAndComplete redraws every seeded draw k without the
// capacity screen, from the same (seed, k), and evaluates it. Sound: a
// screened draw always evaluates invalid. Exact: a draw the screen lets
// through is the unscreened draw, lowering and all. Complete: without
// bypass exploration, every draw that fails for capacity is screened (with
// it, only the innermost level is screened).
func TestSamplerScreenSoundAndComplete(t *testing.T) {
	for name, sp := range screenSpaces() {
		ev := nest.MustEvaluator(sp.Work, sp.Arch)
		p := ev.Plan()
		sc := p.NewScratch()
		screen, plain := sp.NewSampler(), sp.NewSampler()
		ms, mp := &mapping.Mapping{}, &mapping.Mapping{}
		var rs, rp checkpoint.RNG
		rnds, rndp := rand.New(&rs), rand.New(&rp)
		var screened, invalid int
		for k, n := int64(0), screenDraws(); k < n; k++ {
			rs.SeedDraw(3, k)
			rp.SeedDraw(3, k)
			drawn := screen.SampleScreened(rnds, ms, p, sc)
			plain.SampleInto(rndp, mp)
			c := p.EvaluateMappingInto(mp, sc)
			if !c.Valid {
				invalid++
			}
			if !drawn {
				screened++
				if c.Valid {
					t.Fatalf("%s: draw %d screened, but the model finds it valid", name, k)
				}
				continue
			}
			if !sp.Cons.ExploreBypass && strings.HasPrefix(c.Reason, "capacity") {
				t.Fatalf("%s: draw %d not screened, but it fails %q", name, k, c.Reason)
			}
			ds, _ := ms.Dense(sp.Work, sp.Arch, sp.Slots())
			dp, _ := mp.Dense(sp.Work, sp.Arch, sp.Slots())
			if !slices.Equal(ds.Cum, dp.Cum) || !slices.Equal(ds.Perm, dp.Perm) || !slices.Equal(ds.KeepMask, dp.KeepMask) {
				t.Fatalf("%s: draw %d passed the screen but differs from the unscreened draw", name, k)
			}
		}
		t.Logf("%s: %d of %d invalid draws screened", name, screened, invalid)
	}
}

// TestRandomScreenMetrics checks the metrics of a screened search: every
// draw counts as one evaluation, screened ones as invalid, and the model,
// timed on every call here, sees only the draws the screen lets through,
// which on row-stationary Eyeriss are exactly the valid ones.
func TestRandomScreenMetrics(t *testing.T) {
	l := workloads.ResNet50()[3]
	a := arch.EyerissLike(14, 12, 128)
	sp := mapspace.New(l.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(l.Work))
	in := engine.NewInstruments()
	eng := engine.Config{Metrics: in, LatencySampleEvery: 1}.New(nest.MustEvaluator(l.Work, a))
	res := Random(context.Background(), sp, eng, Options{Seed: 9, Threads: 2, MaxEvaluations: 2000})
	snap := in.Counters.Snapshot()
	if snap.Evaluations != res.Evaluated || snap.Valid != res.Valid || snap.CacheHits != 0 {
		t.Errorf("counters %d evaluations, %d valid, %d hits; search %d evaluated, %d valid",
			snap.Evaluations, snap.Valid, snap.CacheHits, res.Evaluated, res.Valid)
	}
	if n := in.EvalHist.Snapshot().Count; n != res.Valid {
		t.Errorf("model timed %d evaluations, want the %d valid draws", n, res.Valid)
	}
	if res.Valid == 0 || res.Valid == res.Evaluated {
		t.Errorf("%d of %d draws valid: the search does not exercise the screen", res.Valid, res.Evaluated)
	}
}
