package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/library"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

var quickOpt = search.Options{Seed: 11, Threads: 4, MaxEvaluations: 3000}

func smallSuite() []workloads.Layer {
	return []workloads.Layer{
		{Name: "pw", Type: workloads.Pointwise, Repeat: 2,
			Work: workload.MustConv2D(workload.Conv2DParams{Name: "pw", N: 1, M: 32, C: 16, P: 13, Q: 13, R: 1, S: 1})},
		{Name: "fc", Type: workloads.DenseFC, Repeat: 1,
			Work: workload.MustMatmul("fc", 100, 1, 64)},
	}
}

func TestSearchLayerFindsMapping(t *testing.T) {
	a := arch.EyerissLike(14, 12, 128)
	for _, st := range Strategies() {
		lr, err := SearchLayer(context.Background(), smallSuite()[0], a, st, mapspace.EyerissRowStationary, quickOpt, engine.Config{})
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		if !lr.Cost.Valid || lr.Cost.EDP <= 0 {
			t.Errorf("%s: bad cost %+v", st.Name, lr.Cost)
		}
		if lr.Workload == nil {
			t.Errorf("%s: winning workload not recorded", st.Name)
		}
	}
}

func TestPaddingMayChangeWorkload(t *testing.T) {
	// A 13x13 pointwise layer on a 14-wide array: the padding strategy can
	// pick the 14-padded variant. Whatever it picks must be at least as good
	// as plain PFM.
	a := arch.EyerissLike(14, 12, 128)
	l := smallSuite()[0]
	pfm, err := SearchLayer(context.Background(), l, a, Strategy{Name: "PFM", Kind: mapspace.PFM}, mapspace.EyerissRowStationary, quickOpt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pad, err := SearchLayer(context.Background(), l, a, Strategy{Name: "PFM+pad", Kind: mapspace.PFM, Pad: true}, mapspace.EyerissRowStationary, quickOpt, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pad.Cost.EDP > pfm.Cost.EDP*1.05 {
		t.Errorf("padding strategy (%g) much worse than PFM (%g)", pad.Cost.EDP, pfm.Cost.EDP)
	}
}

func TestRunSuiteAggregates(t *testing.T) {
	a := arch.EyerissLike(14, 12, 128)
	sr, err := RunSuiteLayers(context.Background(), smallSuite(), a, Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Layers) != 2 {
		t.Fatalf("layers = %d", len(sr.Layers))
	}
	// Repeat weighting: totals exceed the plain sum of layer0 (repeat 2).
	wantE := 2*sr.Layers[0].Cost.EnergyPJ + sr.Layers[1].Cost.EnergyPJ
	if sr.TotalEnergyPJ != wantE {
		t.Errorf("TotalEnergyPJ = %g, want %g", sr.TotalEnergyPJ, wantE)
	}
	if sr.EDP != sr.TotalEnergyPJ*sr.TotalCycles {
		t.Error("EDP != E*D")
	}
}

func TestArrayAxes(t *testing.T) {
	if x, y := arrayAxes(arch.EyerissLike(14, 12, 128)); x != 14 || y != 12 {
		t.Errorf("axes = %dx%d", x, y)
	}
	if x, y := arrayAxes(arch.ToyLinear(16, 512)); x != 16 || y != 1 {
		t.Errorf("toy axes = %dx%d", x, y)
	}
}

func TestEyerissConfigs(t *testing.T) {
	cfgs := EyerissConfigs()
	if cfgs[0].String() != "2x7" || cfgs[len(cfgs)-1].String() != "16x16" {
		t.Errorf("config range wrong: %v .. %v", cfgs[0], cfgs[len(cfgs)-1])
	}
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].PEs() < cfgs[i-1].PEs() {
			t.Errorf("configs not ascending at %d", i)
		}
	}
}

func TestExploreAndFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	layers := smallSuite()[:1]
	cfgs := []ArrayConfig{{2, 7}, {14, 12}}
	pts, err := Explore(context.Background(), layers, cfgs, 128, Strategies()[:1], mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].AreaMM2 >= pts[1].AreaMM2 {
		t.Error("area should grow with array size")
	}
	fr := Frontier(pts, "PFM")
	if len(fr) == 0 {
		t.Error("empty frontier")
	}
}

func TestRunSuiteCached(t *testing.T) {
	a := arch.EyerissLike(14, 12, 128)
	lib, err := library.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	first, err := RunSuiteLayers(context.Background(), smallSuite(), a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := lib.Len(); n != 2 {
		t.Fatalf("library entries = %d, want 2", n)
	}
	// Second run hits the cache: each layer costs exactly one evaluation.
	second, err := RunSuiteLayers(context.Background(), smallSuite(), a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range second.Layers {
		if lr.Search.Evaluated != 1 {
			t.Errorf("layer %d evaluated %d mappings, want 1 (cache hit)", i, lr.Search.Evaluated)
		}
	}
	if second.EDP != first.EDP {
		t.Errorf("cached EDP %g != original %g", second.EDP, first.EDP)
	}
	// Padding strategies bypass the cache.
	pad := Strategy{Name: "PFM+pad", Kind: mapspace.PFM, Pad: true}
	if _, err := RunSuiteLayers(context.Background(), smallSuite(), a, pad, mapspace.EyerissRowStationary, SuiteOptions{Search: quickOpt, Library: lib}); err != nil {
		t.Fatal(err)
	}
	if n, _ := lib.Len(); n != 2 {
		t.Errorf("padding strategy polluted the cache: %d entries", n)
	}
}

// forEachIndex runs every index exactly once at any width, reports the
// lowest failing index's error, starts nothing after a failure when serial,
// and starts nothing at all under a cancelled context.
func TestForEachIndex(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var seen [10]atomic.Int32
		if err := forEachIndex(context.Background(), 10, workers, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, n)
			}
		}

		var started atomic.Int32
		err := forEachIndex(context.Background(), 10, workers, func(i int) error {
			started.Add(1)
			if i == 4 || i == 6 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 4" {
			t.Fatalf("workers %d: err = %v, want the lowest failing index's", workers, err)
		}
		if workers == 1 && started.Load() != 5 {
			t.Fatalf("serial run started %d indices, want 5 (stop at the first failure)", started.Load())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := forEachIndex(ctx, 4, 2, func(int) error {
		t.Error("index started under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
