package sweep

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

func freeCons(*workload.Workload) mapspace.Constraints { return mapspace.Constraints{} }

// pairNetwork is a pointwise producer feeding a 3x3 consumer, small enough
// that fused pairs are found within tiny budgets (the same shape the nest
// fused-evaluator tests pin down).
func pairNetwork() *workload.Network {
	prod := workload.MustConv2D(workload.Conv2DParams{
		Name: "p", N: 1, M: 16, C: 4, P: 14, Q: 14, R: 1, S: 1})
	cons := workload.MustConv2D(workload.Conv2DParams{
		Name: "c", N: 1, M: 8, C: 16, P: 14, Q: 14, R: 3, S: 3})
	return workload.MustNetwork("pair",
		[]workload.Node{
			{Name: "p", Repeat: 2, Work: prod},
			{Name: "c", Repeat: 3, Work: cons},
		},
		[]workload.Edge{{From: "p", To: "c", Dims: map[string]string{
			"N": "N", "M": "C", "P": "P", "Q": "Q"}}})
}

// The network entry point over an edge-free graph must reproduce the []Layer
// path exactly. Both sides search with one thread: multi-threaded one-shot
// random search shares its budget counter across workers, so which samples
// it evaluates depends on goroutine scheduling.
func TestRunSuiteNetworkMatchesLayers(t *testing.T) {
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	layers := smallSuite()
	net := workloads.NetworkFromLayers("small", layers)
	opt := quickOpt
	opt.Threads = 1
	want, err := RunSuiteLayers(context.Background(), layers, a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: opt})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSuite(context.Background(), net, a, st, mapspace.EyerissRowStationary, SuiteOptions{Search: opt})
	if err != nil {
		t.Fatal(err)
	}
	if got.EDP != want.EDP || got.TotalEnergyPJ != want.TotalEnergyPJ || got.TotalCycles != want.TotalCycles {
		t.Fatalf("network totals %+v diverge from layer totals %+v", got, want)
	}
	for i := range want.Layers {
		if got.Layers[i].Cost.EDP != want.Layers[i].Cost.EDP {
			t.Fatalf("layer %d EDP diverges", i)
		}
	}
}

func TestSearchNetworkFusesPair(t *testing.T) {
	net := pairNetwork()
	a := arch.EyerissLike(4, 3, 2)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 5, Threads: 1, MaxEvaluations: 2000}}

	off, err := SearchNetwork(context.Background(), net, a, st, freeCons, so, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Segments) != 0 || off.EDP != off.Baseline.EDP {
		t.Fatalf("fusion-disabled search diverges from baseline: %+v", off)
	}

	nr, err := SearchNetwork(context.Background(), net, a, st, freeCons, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 1 {
		t.Fatalf("got %d fused segments, want 1", len(nr.Segments))
	}
	sg := nr.Segments[0]
	if sg.From != "p" || sg.To != "c" || sg.Repeat != 2 {
		t.Fatalf("bad segment %+v", sg)
	}
	if sg.Fused.ElidedWords <= 0 {
		t.Fatal("segment elides no DRAM words")
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not below baseline %g", nr.EDP, nr.Baseline.EDP)
	}
	// The totals are the baseline with the segment's delta applied at the
	// fused repeat; the consumer's leftover repeat stays at baseline.
	r := float64(sg.Repeat)
	wantE := nr.Baseline.TotalEnergyPJ + r*(sg.Fused.EnergyPJ-sg.BaselineEnergyPJ)
	wantC := nr.Baseline.TotalCycles + r*(sg.Fused.Cycles-sg.BaselineCycles)
	if nr.TotalEnergyPJ != wantE || nr.TotalCycles != wantC || nr.EDP != wantE*wantC {
		t.Fatalf("totals %g/%g diverge from segment accounting %g/%g", nr.TotalEnergyPJ, nr.TotalCycles, wantE, wantC)
	}
}

// resnetSegments builds a network of two pinned disjoint ResNet-50 fusion
// candidates: the res2 bottleneck entry (1x1 into the 3x3 at 56x56) and the
// res3 bottleneck exit (the 3x3 into the expanding 1x1 at 28x28).
func resnetSegments(t *testing.T) *workload.Network {
	t.Helper()
	byName := make(map[string]workloads.Layer)
	for _, l := range workloads.ResNet50() {
		byName[l.Name] = l
	}
	var nodes []workload.Node
	for _, name := range []string{"res2a_branch2a", "res2x_branch2b", "res3x_branch2b", "res3x_branch2c"} {
		l, ok := byName[name]
		if !ok {
			t.Fatalf("ResNet-50 layer %s missing", name)
		}
		nodes = append(nodes, workload.Node{Name: l.Name, Repeat: l.Repeat, Work: l.Work})
	}
	return workload.MustNetwork("resnet50-segments", nodes,
		[]workload.Edge{
			{From: "res2a_branch2a", To: "res2x_branch2b", Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}},
			{From: "res3x_branch2b", To: "res3x_branch2c", Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}},
		})
}

// Acceptance: on two pinned ResNet-50 segments the fused search must report
// strictly lower network EDP than the per-layer baseline, fusing both.
func TestSearchNetworkFusesResNetSegments(t *testing.T) {
	net := resnetSegments(t)
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 1, Threads: 1, MaxEvaluations: 4000}}
	nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) < 2 {
		t.Fatalf("fused %d ResNet-50 segments, want 2", len(nr.Segments))
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not strictly below per-layer %g", nr.EDP, nr.Baseline.EDP)
	}
	for _, sg := range nr.Segments {
		if sg.Fused.ElidedWords <= 0 {
			t.Fatalf("segment %s->%s elides no DRAM words", sg.From, sg.To)
		}
	}
}

// Acceptance: the DeepBench vision stack must fuse with strictly lower
// network EDP than its per-layer baseline.
func TestSearchNetworkFusesDeepBenchStack(t *testing.T) {
	full := workloads.DeepBenchStacks()
	// The vision 3x3 stack alone: the speech GEMMs' intermediate is far
	// beyond on-chip capacity at single-fetch, so they stay per-layer.
	var nodes []workload.Node
	for _, nd := range full.Nodes {
		if nd.Name == "vision_stack_3x3_28a" || nd.Name == "vision_stack_3x3_28b" {
			nodes = append(nodes, nd)
		}
	}
	net := workload.MustNetwork("deepbench-vision", nodes,
		[]workload.Edge{{From: "vision_stack_3x3_28a", To: "vision_stack_3x3_28b",
			Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"}}})
	a := arch.EyerissLike(14, 12, 128)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	so := SuiteOptions{Search: search.Options{Seed: 7, Threads: 1, MaxEvaluations: 4000}}
	nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary, so, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Segments) != 1 {
		t.Fatalf("fused %d DeepBench segments, want 1", len(nr.Segments))
	}
	if nr.EDP >= nr.Baseline.EDP {
		t.Fatalf("fused network EDP %g not strictly below per-layer %g", nr.EDP, nr.Baseline.EDP)
	}
}

// A checkpointed network search must resume bit-identically: the second run
// restores both the baseline layers and the fused segments without
// re-searching, whether the layers and segments ran serially or two-wide.
func TestSearchNetworkCheckpointResume(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			testSearchNetworkCheckpointResume(t, par)
		})
	}
}

func testSearchNetworkCheckpointResume(t *testing.T, par int) {
	net := pairNetwork()
	a := arch.EyerissLike(4, 3, 2)
	st := Strategy{Name: "Ruby-S", Kind: mapspace.RubyS}
	path := filepath.Join(t.TempDir(), "net.suite.json")
	opt := search.Options{Seed: 5, Threads: 1, MaxEvaluations: 2000}

	cp, err := OpenSuiteCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SearchNetwork(context.Background(), net, a, st, freeCons,
		SuiteOptions{Search: opt, Checkpoint: cp, Parallel: par}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Segments) != 1 {
		t.Fatalf("got %d fused segments, want 1", len(first.Segments))
	}

	cp2, err := OpenSuiteCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SearchNetwork(context.Background(), net, a, st, freeCons,
		SuiteOptions{Search: opt, Checkpoint: cp2, Parallel: par}, true)
	if err != nil {
		t.Fatal(err)
	}
	if second.EDP != first.EDP || second.TotalEnergyPJ != first.TotalEnergyPJ ||
		second.TotalCycles != first.TotalCycles {
		t.Fatalf("resumed totals diverge: %g vs %g", second.EDP, first.EDP)
	}
	if len(second.Segments) != 1 {
		t.Fatalf("resumed run lost the fused segment")
	}
	sg1, sg2 := first.Segments[0], second.Segments[0]
	if sg2.Fused.EDP != sg1.Fused.EDP || sg2.Fused.ElidedWords != sg1.Fused.ElidedWords {
		t.Fatalf("resumed segment cost diverges: %+v vs %+v", sg2.Fused, sg1.Fused)
	}
	if sg2.Evaluated != 0 {
		t.Fatalf("resumed segment re-searched (%d evaluations)", sg2.Evaluated)
	}
}

// searchNetworkGolden pins SearchNetwork on ResNet-50 (Eyeriss-like 14x12,
// row-stationary, 1000 evaluations per layer and per segment) per
// strategy/seed: the network EDP bits, then per kept segment its edge, its
// Evaluated count, its fused EDP bits and the leading 8 bytes of the
// SHA-256 of each winning mapping's Encode bytes. It was first recorded
// from the serial segment search that cloned every proposal, which the
// parallel, in-place search reproduced bit for bit, and re-recorded, with
// the same seeds and budget, when random draw k came to be seeded from
// (Seed, k).
var searchNetworkGolden = map[string][]string{
	"Ruby-S/1001": {
		"edp=43d30ce77708ada7",
		"res2x_branch2b->res2x_branch2c edge=1 evaluated=751 edp=433f21d99314cccc prod=18a670d44316c529 cons=c37ad737d765855a",
		"res3a_branch2a->res3x_branch2b edge=3 evaluated=751 edp=432f881b69486666 prod=b8aae2cfddbd0794 cons=2e934ee170e6030d",
		"res4a_branch2a->res4x_branch2b edge=6 evaluated=999 edp=43340efabb505867 prod=157bfbdebdc50906 cons=7f01198a86fc8f0a",
	},
	"Ruby-S/2002": {
		"edp=43d12ebf4089f8cf",
		"res4x_branch2b->res4x_branch2c edge=7 evaluated=875 edp=43401e488251799a prod=d54f94b26caef45e cons=d3a6a1218b3892f1",
		"res2x_branch2c->res3a_branch2a edge=2 evaluated=999 edp=4311bf82f25f0000 prod=c31c5092e6649337 cons=e372fc685debbc81",
		"res2a_branch2a->res2x_branch2b edge=0 evaluated=626 edp=4326b9f67ccccccc prod=51e8b39493c00946 cons=8de956d24c5c44f4",
	},
	"PFM/1001": {
		"edp=43d86250af568c88",
		"res3x_branch2c->res4a_branch2a edge=5 evaluated=875 edp=43208d2596666667 prod=1fa574eb1a4084a1 cons=e0e152cefa471ebf",
		"res5a_branch2a->res5x_branch2b edge=9 evaluated=751 edp=433a6feaa0000000 prod=7f47986f4d8b8ca6 cons=d2874da3c162898e",
		"res2a_branch2a->res2x_branch2b edge=0 evaluated=626 edp=432a81701d999999 prod=b905bd47c32e8635 cons=3d20c3205cbcb58a",
	},
	"PFM/2002": {
		"edp=43e2af2b50c1241a",
		"res2x_branch2b->res2x_branch2c edge=1 evaluated=626 edp=433ad89438000001 prod=d69cfbd622016bb0 cons=38486b16f16b8a54",
		"res5x_branch2b->res5x_branch2c edge=10 evaluated=999 edp=434fb69fe4a66667 prod=885a8b7a4a24dccf cons=a46ae28598c3834f",
		"res3x_branch2c->res4a_branch2a edge=5 evaluated=999 edp=432f1eb218666665 prod=c720a1a0a39ad371 cons=5b23169b98ab8fbd",
		"res3a_branch2a->res3x_branch2b edge=3 evaluated=875 edp=433bc13781ffffff prod=ea710bd9c2a1d41d cons=78007fa8ae366c02",
		"res4x_branch2c->res5a_branch2a edge=8 evaluated=999 edp=432df3429c333333 prod=a084f49cccc34b4b cons=efcf94d6f99ef641",
	},
}

// networkDigest renders a network result in searchNetworkGolden's form.
func networkDigest(t *testing.T, nr *NetworkResult) []string {
	t.Helper()
	out := []string{fmt.Sprintf("edp=%016x", math.Float64bits(nr.EDP))}
	for _, sg := range nr.Segments {
		pb, err := sg.Producer.Encode()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := sg.Consumer.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ph, ch := sha256.Sum256(pb), sha256.Sum256(cb)
		out = append(out, fmt.Sprintf("%s->%s edge=%d evaluated=%d edp=%016x prod=%x cons=%x",
			sg.From, sg.To, sg.EdgeIndex, sg.Evaluated, math.Float64bits(sg.Fused.EDP), ph[:8], ch[:8]))
	}
	return out
}

// Segment search must not depend on the schedule: serial and two-wide
// network searches reproduce the golden exactly (run under -race, this also
// checks the concurrent segments share nothing mutable).
func TestSearchNetworkGolden(t *testing.T) {
	net := workloads.ResNet50Network()
	a := arch.EyerissLike(14, 12, 128)
	for _, st := range []Strategy{{Name: "Ruby-S", Kind: mapspace.RubyS}, {Name: "PFM", Kind: mapspace.PFM}} {
		for _, seed := range []int64{1001, 2002} {
			key := fmt.Sprintf("%s/%d", st.Name, seed)
			for _, par := range []int{1, 2} {
				so := SuiteOptions{Search: search.Options{Seed: seed, Threads: 1, MaxEvaluations: 1000}, Parallel: par}
				nr, err := SearchNetwork(context.Background(), net, a, st, mapspace.EyerissRowStationary, so, true)
				if err != nil {
					t.Fatal(err)
				}
				if got := networkDigest(t, nr); !reflect.DeepEqual(got, searchNetworkGolden[key]) {
					t.Errorf("%s Parallel %d:\ngot  %q\nwant %q", key, par, got, searchNetworkGolden[key])
				}
			}
		}
	}
}
