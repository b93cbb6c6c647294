package search

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// hillClimbGolden is what one seeded hill climb reports: its counters, the
// best EDP's bits, and digests of the incumbent's encoding, the trace and
// the snapshot taken after three Steps.
type hillClimbGolden struct {
	evaluated, valid int64
	edpBits          uint64
	best, trace      string
	snap3            string
}

// digest is the first 8 bytes of data's SHA-256, in hex.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

func hillClimbGoldenOptions() Options {
	return Options{Seed: 5, MaxEvaluations: 3000, Warmup: 200, Patience: 400, KeepTrace: true}
}

// runHillClimbGolden runs the golden search on sp and condenses its outcome.
func runHillClimbGolden(t *testing.T, sp *mapspace.Space) hillClimbGolden {
	t.Helper()
	ev := nest.MustEvaluator(sp.Work, sp.Arch)
	res := HillClimb(context.Background(), sp, engine.New(ev), hillClimbGoldenOptions())
	got := hillClimbGolden{evaluated: res.Evaluated, valid: res.Valid}
	if res.Best != nil {
		got.edpBits = math.Float64bits(res.BestCost.EDP)
		raw, err := res.Best.Encode()
		if err != nil {
			t.Fatal(err)
		}
		cost, _ := json.Marshal(res.BestCost)
		got.best = digest(append(raw, cost...))
	}
	var tr []byte
	for _, tp := range res.Trace {
		tr = binary.LittleEndian.AppendUint64(tr, uint64(tp.Evals))
		tr = binary.LittleEndian.AppendUint64(tr, math.Float64bits(tp.Value))
	}
	got.trace = digest(tr)

	s := NewHillClimb(sp, engine.New(ev), hillClimbGoldenOptions())
	for i := 0; i < 3; i++ {
		if _, err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got.snap3 = digest(raw)
	return got
}

// goldenHillClimbs were recorded while the hill climber was the only
// searcher built on the Move/delta climb loop, before annealing shared it.
var goldenHillClimbs = map[string]hillClimbGolden{
	"conv1/eyeriss-strict/PFM":                  {905, 459, 0x432becd37fcf3333, "d9773d94088c66c1", "fbde7ebf3c445e05", "eac334aa20679e1f"},
	"conv1/eyeriss-strict/Ruby-S":               {200, 0, 0x0, "", "e3b0c44298fc1c14", "44efcfe30623e53c"},
	"face_conv_9x9/eyeriss/PFM":                 {692, 307, 0x4351331c94b8c61a, "95e41fbf04d39ee1", "de83dc93d6034c44", "3984d453d1103e93"},
	"face_conv_9x9/eyeriss/Ruby-S":              {995, 448, 0x434b70ba08ae4b9a, "2e3cc8591912ed6b", "36603a005ca992c0", "b517c9b7d841ea65"},
	"fc1000/eyeriss/PFM":                        {810, 385, 0x42b7487ec7a00000, "8835a9ccf999cb55", "d181437bd801bc6e", "a64fbb6779f0b8b5"},
	"fc1000/eyeriss/Ruby-S":                     {823, 372, 0x42a6b16f6059999a, "8320e54468524813", "de19486dce4b3dca", "8cc0234f3a138b78"},
	"res2a_branch1/eyeriss/PFM":                 {694, 335, 0x431326a4e6666666, "3b440c352d3230a8", "279f1e7b8d031038", "5870676d28ee91da"},
	"res2a_branch1/eyeriss/Ruby-S":              {667, 306, 0x431706fef0800000, "2a47b1e275107f88", "f5cc3aa19f82b90a", "ab9113af6c9c0835"},
	"res2a_branch2a/simba/PFM":                  {705, 445, 0x42c2c45fed792854, "1a57d8c3c96e38e0", "70900f2fc2437407", "b89f81906a305968"},
	"res2a_branch2a/simba/Ruby-S":               {708, 412, 0x42c241103671c8da, "e919edf427d37f41", "a431c8f346997e24", "4ac2f19e27c37335"},
	"res2x_branch2b/eyeriss/PFM":                {671, 266, 0x4313d39ac999999a, "bfc26b6f4346cd37", "de427c18e1a929db", "3f0f5b19e1c1aade"},
	"res2x_branch2b/eyeriss/Ruby-S":             {1017, 463, 0x431e01b28ccccccc, "79a59f56904f9f39", "1104a98806659349", "f50a672fe3ff8b14"},
	"res2x_branch2b/simba-bypass/PFM":           {803, 534, 0x431a766e5ab6df30, "9e5ff739a55b82e9", "2e33deeaf0acfb4a", "062383677d7f8b3b"},
	"res2x_branch2b/simba-bypass/Ruby-S":        {644, 419, 0x4319cd9038c187d3, "680371954fdaabd4", "a4501f77ff04d87a", "3e38e6a1c93fc616"},
	"speaker_gemm_512x1500x2816/eyeriss/PFM":    {819, 240, 0x43b621c84d300000, "f1b8bf948334259c", "ef8485380edb446a", "4dc0fcdd4d048a94"},
	"speaker_gemm_512x1500x2816/eyeriss/Ruby-S": {848, 232, 0x43a19d86e5eeff00, "6e77109d284aaaa4", "15588ff214740a1a", "520eae7336b55d7b"},
	"speech_ds_conv1/simba/PFM":                 {634, 369, 0x4391034203fd3629, "82ae7d6efc9f02c9", "6dd108f321a74f9e", "07164d649d5982da"},
	"speech_ds_conv1/simba/Ruby-S":              {757, 440, 0x438694ac59634fce, "c5348967dddc2523", "536b4d86d3adcd5a", "231a1fe426780109"},
	"toy-d100/PFM":                              {600, 600, 0x413b422000000000, "4b823990053187f3", "b9cce7b852cc4570", "c807857c93a26d02"},
	"toy-d100/Ruby-S":                           {600, 600, 0x41372b6800000000, "380f28d25acf409a", "9b9e6daf0583b1af", "9f68b84b7d609765"},
	"toy-mm12x6x4/PFM":                          {600, 465, 0x414817b333333334, "a3c0c9758e20bab4", "0d6dd6944363a0c3", "1e1fd051a8ba2853"},
	"toy-mm12x6x4/Ruby-S":                       {600, 388, 0x414817b333333334, "515a547d83c735ea", "ff4ef3ef4fdf4ca0", "2c62f6f82449ead5"},
}

// TestHillClimbGolden pins the greedy hill climb draw for draw over the toy
// and the suite layers of the cache goldens, under PFM and Ruby-S.
func TestHillClimbGolden(t *testing.T) {
	for name, sp := range cacheGoldenSpaces() {
		if sp.Kind != mapspace.PFM && sp.Kind != mapspace.RubyS {
			continue
		}
		got := runHillClimbGolden(t, sp)
		want, ok := goldenHillClimbs[name]
		if !ok {
			t.Errorf("no golden for %q; this tree reports %q: {%d, %d, %#x, %q, %q, %q},", name,
				name, got.evaluated, got.valid, got.edpBits, got.best, got.trace, got.snap3)
			continue
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}
