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

// goldenCacheSearches pin the cache hits, valid counts and best EDP of the
// seeded searches. They were first recorded with the memo cache keyed by
// the mapping's canonical string (mapping.Key), which showed that the
// lowered-form key hits and misses on exactly the same draws, and that every
// hit returns what a fresh evaluation would. They were re-recorded, with the
// same seed and budget, when random draw k came to be seeded from
// (Seed, k). The hits alone were re-recorded when random search began to
// screen its draws for capacity: a screened draw never reaches the cache,
// so overflowing draws that repeat no longer score hits, while the valid
// counts and best EDPs stayed as they were.
var goldenCacheSearches = map[string]cacheGolden{
	"conv1/eyeriss-strict/PFM":                  {0, 39, 0x4332b27a8ee4cccd},
	"conv1/eyeriss-strict/Ruby":                 {0, 1, 0x434aea07df0c8000},
	"conv1/eyeriss-strict/Ruby-S":               {0, 51, 0x4338ba8c6d073333},
	"conv1/eyeriss-strict/Ruby-T":               {0, 2, 0x4337b4317ef60000},
	"face_conv_9x9/eyeriss/PFM":                 {0, 133, 0x4353e88d0b0a9233},
	"face_conv_9x9/eyeriss/Ruby":                {0, 1, 0x43e56a232483c010},
	"face_conv_9x9/eyeriss/Ruby-S":              {0, 123, 0x43557b7305e06667},
	"face_conv_9x9/eyeriss/Ruby-T":              {0, 0, 0x0},
	"fc1000/eyeriss/PFM":                        {2, 150, 0x42b79d1707a00000},
	"fc1000/eyeriss/Ruby":                       {0, 3, 0x42b85d29e79cf000},
	"fc1000/eyeriss/Ruby-S":                     {0, 116, 0x42a6a7a597e94ccd},
	"fc1000/eyeriss/Ruby-T":                     {0, 4, 0x42e037dbabe00000},
	"res2a_branch1/eyeriss/PFM":                 {0, 41, 0x431ceb3fccccccce},
	"res2a_branch1/eyeriss/Ruby":                {0, 0, 0x0},
	"res2a_branch1/eyeriss/Ruby-S":              {0, 39, 0x430fb46ae4000000},
	"res2a_branch1/eyeriss/Ruby-T":              {0, 1, 0x4327d269b5666667},
	"res2a_branch2a/simba/PFM":                  {0, 1022, 0x42c248f4be49d87e},
	"res2a_branch2a/simba/Ruby":                 {0, 68, 0x42c029b517356b41},
	"res2a_branch2a/simba/Ruby-S":               {1, 949, 0x42c0779c4c47a13d},
	"res2a_branch2a/simba/Ruby-T":               {0, 90, 0x42c241103671c8da},
	"res2x_branch2b/eyeriss/PFM":                {0, 43, 0x4323247c2f333333},
	"res2x_branch2b/eyeriss/Ruby":               {0, 0, 0x0},
	"res2x_branch2b/eyeriss/Ruby-S":             {0, 39, 0x4322962b27333333},
	"res2x_branch2b/eyeriss/Ruby-T":             {0, 0, 0x0},
	"res2x_branch2b/simba-bypass/PFM":           {0, 1095, 0x431f625b5a3c09d0},
	"res2x_branch2b/simba-bypass/Ruby":          {0, 62, 0x432017df5bd14113},
	"res2x_branch2b/simba-bypass/Ruby-S":        {0, 1029, 0x431818a4fee714f9},
	"res2x_branch2b/simba-bypass/Ruby-T":        {0, 83, 0x4314441df3f54db1},
	"speaker_gemm_512x1500x2816/eyeriss/PFM":    {0, 32, 0x43b39f46f2a00000},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby":   {0, 0, 0x0},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby-S": {0, 32, 0x43c1c25d84c105a1},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby-T": {0, 1, 0x43de7a430a380000},
	"speech_ds_conv1/simba/PFM":                 {0, 729, 0x438a485d809b3a01},
	"speech_ds_conv1/simba/Ruby":                {0, 42, 0x438e108166eb0d61},
	"speech_ds_conv1/simba/Ruby-S":              {0, 680, 0x4386e74c1c7700a0},
	"speech_ds_conv1/simba/Ruby-T":              {0, 32, 0x438c7dd4964b9596},
	"toy-d100/PFM":                              {2976, 3000, 0x413b422000000000},
	"toy-d100/Ruby":                             {2781, 3000, 0x41372b6800000000},
	"toy-d100/Ruby-S":                           {2970, 3000, 0x41372b6800000000},
	"toy-d100/Ruby-T":                           {2814, 3000, 0x413b422000000000},
	"toy-mm12x6x4/PFM":                          {1695, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby":                         {1691, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby-S":                       {1835, 3000, 0x414817b333333334},
	"toy-mm12x6x4/Ruby-T":                       {1456, 3000, 0x414817b333333334},
}

// TestCacheKeySearchGolden runs seeded one-thread random searches through a
// cache-enabled engine and pins their cache hits, valid counts and best EDP.
func TestCacheKeySearchGolden(t *testing.T) {
	for name, sp := range cacheGoldenSpaces() {
		met := &engine.Counters{}
		eng := engine.Config{CacheEntries: 1 << 15, Metrics: met}.New(nest.MustEvaluator(sp.Work, sp.Arch))
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
