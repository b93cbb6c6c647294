package search

import (
	"context"
	"math"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// cacheGolden is what one seeded cached search reports: memo-cache hits,
// valid evaluations and the best EDP's bits (every search spends exactly
// cacheGoldenEvals evaluations).
type cacheGolden struct {
	hits, valid int64
	edpBits     uint64
}

const cacheGoldenEvals = 3000

// cacheGoldenSpaces lists the 44 spaces the cache goldens search: the toy
// vector and a small matmul on the Fig. 5 toy, and nine suite layers on
// Eyeriss and Simba, each under all four kinds.
func cacheGoldenSpaces() map[string]*mapspace.Space {
	out := map[string]*mapspace.Space{}
	add := func(name string, w *workload.Workload, a *arch.Arch, cons mapspace.Constraints) {
		for _, k := range mapspace.Kinds {
			out[name+"/"+k.String()] = mapspace.New(w, a, k, cons)
		}
	}
	toyA := arch.ToyGLB(6, 512)
	add("toy-d100", workload.MustVector1D("toy", 100), toyA, mapspace.Constraints{FixedPerms: true})
	add("toy-mm12x6x4", workload.MustMatmul("mm", 12, 6, 4), toyA, mapspace.Constraints{})
	eyeriss := arch.EyerissLike(14, 12, 128)
	simba := arch.SimbaLike(15, 4, 4)
	rn, db := workloads.ResNet50(), workloads.DeepBench()
	for _, l := range []workloads.Layer{rn[1], rn[3], rn[len(rn)-1], db[7], db[len(db)-1]} {
		add(l.Name+"/eyeriss", l.Work, eyeriss, mapspace.EyerissRowStationary(l.Work))
	}
	for _, l := range []workloads.Layer{rn[2], db[6]} {
		add(l.Name+"/simba", l.Work, simba, mapspace.SimbaDataflow(l.Work))
	}
	add(rn[0].Name+"/eyeriss-strict", rn[0].Work, eyeriss, mapspace.EyerissStrictRowStationary(rn[0].Work))
	bypass := mapspace.SimbaDataflow(rn[3].Work)
	bypass.ExploreBypass = true
	add(rn[3].Name+"/simba-bypass", rn[3].Work, simba, bypass)
	return out
}

// goldenCacheSearches were recorded with the memo cache keyed by the
// mapping's canonical string (mapping.Key): the lowered-form key must hit
// and miss on exactly the same draws, and every hit must return what a
// fresh evaluation would.
var goldenCacheSearches = map[string]cacheGolden{
	"conv1/eyeriss-strict/PFM":                  {0, 53, 0x4325eb1297919999},
	"conv1/eyeriss-strict/Ruby":                 {1, 0, 0x0},
	"conv1/eyeriss-strict/Ruby-S":               {1, 45, 0x433b1838d2a4cccd},
	"conv1/eyeriss-strict/Ruby-T":               {2, 1, 0x43519371e8298000},
	"face_conv_9x9/eyeriss/PFM":                 {1, 141, 0x4356eed0c64bb2cd},
	"face_conv_9x9/eyeriss/Ruby":                {0, 1, 0x4354abeb7dac34cd},
	"face_conv_9x9/eyeriss/Ruby-S":              {0, 143, 0x434c7edde6790000},
	"face_conv_9x9/eyeriss/Ruby-T":              {0, 1, 0x4393e943e233ebcd},
	"fc1000/eyeriss/PFM":                        {221, 159, 0x42b71b60c7a00000},
	"fc1000/eyeriss/Ruby":                       {483, 5, 0x42aba694fd399999},
	"fc1000/eyeriss/Ruby-S":                     {234, 143, 0x42a70dd16c2ccccd},
	"fc1000/eyeriss/Ruby-T":                     {510, 5, 0x42d85e9567a00000},
	"res2a_branch1/eyeriss/PFM":                 {0, 49, 0x430eaec833333332},
	"res2a_branch1/eyeriss/Ruby":                {23, 0, 0x0},
	"res2a_branch1/eyeriss/Ruby-S":              {1, 44, 0x4306536673333333},
	"res2a_branch1/eyeriss/Ruby-T":              {27, 1, 0x43534b0d26000000},
	"res2a_branch2a/simba/PFM":                  {0, 1022, 0x42c241103671c8da},
	"res2a_branch2a/simba/Ruby":                 {2, 83, 0x42bbb530d99f96f3},
	"res2a_branch2a/simba/Ruby-S":               {0, 968, 0x42c0a58b5270ab1d},
	"res2a_branch2a/simba/Ruby-T":               {1, 86, 0x42c442913abde3c0},
	"res2x_branch2b/eyeriss/PFM":                {0, 42, 0x4338c2e890000000},
	"res2x_branch2b/eyeriss/Ruby":               {0, 0, 0x0},
	"res2x_branch2b/eyeriss/Ruby-S":             {0, 40, 0x432c007731b33334},
	"res2x_branch2b/eyeriss/Ruby-T":             {1, 0, 0x0},
	"res2x_branch2b/simba-bypass/PFM":           {0, 1077, 0x431ee9ce58f0952c},
	"res2x_branch2b/simba-bypass/Ruby":          {0, 72, 0x432436cdf728efe0},
	"res2x_branch2b/simba-bypass/Ruby-S":        {0, 974, 0x4319875a1a86e3bb},
	"res2x_branch2b/simba-bypass/Ruby-T":        {0, 81, 0x432048a74855e322},
	"speaker_gemm_512x1500x2816/eyeriss/PFM":    {2, 39, 0x43c36b05e1478000},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby":   {93, 0, 0x0},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby-S": {0, 33, 0x43b0a3d24a3e999a},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby-T": {121, 0, 0x0},
	"speech_ds_conv1/simba/PFM":                 {0, 656, 0x438805e86b2cd1de},
	"speech_ds_conv1/simba/Ruby":                {0, 37, 0x4386a708bda0938a},
	"speech_ds_conv1/simba/Ruby-S":              {0, 688, 0x43840c6d7dd15b0c},
	"speech_ds_conv1/simba/Ruby-T":              {0, 40, 0x439652b58ee845b2},
	"toy-d100/PFM":                              {2976, 3000, 0x413b422000000000},
	"toy-d100/Ruby":                             {2777, 3000, 0x41372b6800000000},
	"toy-d100/Ruby-S":                           {2970, 3000, 0x41372b6800000000},
	"toy-d100/Ruby-T":                           {2809, 3000, 0x413b422000000000},
	"toy-mm12x6x4/PFM":                          {1719, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby":                         {1660, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby-S":                       {1841, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby-T":                       {1490, 3000, 0x414817b333333334},
}

// TestCacheKeySearchGolden runs seeded one-thread random searches through a
// cache-enabled engine and pins their cache hits, valid counts and best EDP.
func TestCacheKeySearchGolden(t *testing.T) {
	for name, sp := range cacheGoldenSpaces() {
		met := &engine.Counters{}
		eng := engine.Config{CacheEntries: 1 << 15, Metrics: met, Workers: 1}.New(nest.MustEvaluator(sp.Work, sp.Arch))
		res := Random(context.Background(), sp, eng, Options{Seed: 5, Threads: 1, MaxEvaluations: cacheGoldenEvals})
		if res.Evaluated != cacheGoldenEvals {
			t.Errorf("%s: evaluated %d, want %d", name, res.Evaluated, cacheGoldenEvals)
		}
		got := cacheGolden{hits: met.Snapshot().CacheHits, valid: res.Valid}
		if res.Best != nil {
			got.edpBits = math.Float64bits(res.BestCost.EDP)
		}
		want, ok := goldenCacheSearches[name]
		if !ok {
			t.Errorf("no golden for %q; this tree reports %q: {%d, %d, %#x},", name, name, got.hits, got.valid, got.edpBits)
			continue
		}
		if got != want {
			t.Errorf("%s: {hits, valid, edp} = {%d, %d, %g}, want {%d, %d, %g}", name,
				got.hits, got.valid, math.Float64frombits(got.edpBits),
				want.hits, want.valid, math.Float64frombits(want.edpBits))
		}
	}
}
