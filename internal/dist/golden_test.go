package dist

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ruby/internal/engine"
	"ruby/internal/search"
)

// goldenFleetShapes are the three problems of the fleet-exhaustive benchmark
// workload (bench/fleet.go), each scanned exhaustively over Ruby-S on the
// Fig. 5 global-buffer toy in 8 chain shards.
var goldenFleetShapes = []string{
	`{"name": "mm360x180x36", "type": "matmul", "matmul": {"m": 360, "n": 180, "k": 36}}`,
	`{"name": "conv8x4x3", "type": "conv2d", "conv": {"N": 8, "M": 4, "C": 3, "P": 6, "Q": 4, "R": 2, "S": 1}}`,
	`{"name": "mm420x180x60", "type": "matmul", "matmul": {"m": 420, "n": 180, "k": 60}}`,
}

// exhaustiveFleetGolden pins, per fleet-exhaustive shape, every shard's
// exhaustive result and the merge RunLocal reports. A shard line gives its
// Evaluated and Valid counts, the best EDP bits, the leading 8 bytes of the
// SHA-256 of the best mapping's Encode bytes, of BestCost's %#v rendering
// (every field, floats at full precision) and of the trace; the last line
// is RunLocal's merge. It was recorded from the scan that allocated a fresh
// mapping per enumerated point and ran it through the engine's memo cache,
// which the in-place, cache-bypassing scan must reproduce bit for bit.
var exhaustiveFleetGolden = map[string][]string{
	"mm360x180x36": {
		"shard=0 evaluated=24960 valid=8405 edp=42c84d9666340000 best=2eb8d4e4b6cbf21f cost=d9dcf9e589b215f9 trace=29/5627c612db580503",
		"shard=1 evaluated=24960 valid=1639 edp=42ca9441a3120000 best=3e07241da43a95f2 cost=199dd7a809b3cda5 trace=19/3e66d4f9eae8b071",
		"shard=2 evaluated=24960 valid=3316 edp=42c826df387c0000 best=e0f53624cabdcdd5 cost=de83ad95fe5df459 trace=10/6e0a017dfe717d88",
		"shard=3 evaluated=24960 valid=1470 edp=42c84d9666340000 best=e3f31ea40e309fa5 cost=9c1bad11ca5d28b7 trace=13/a30e018cb40998d1",
		"shard=4 evaluated=24960 valid=721 edp=42ca46d347a20000 best=c1215193e1931c91 cost=bd3b867833c47725 trace=12/100fe8ef1fc544e9",
		"shard=5 evaluated=24960 valid=575 edp=42d0e0a787d00000 best=e9fd5444498b89d3 cost=f5c2308defb57007 trace=3/05a5ca28a8a0355f",
		"shard=6 evaluated=22880 valid=437 edp=42d0450497b40000 best=afa30ab900002cf8 cost=975a26504c30fcf3 trace=13/84a82955c70274f8",
		"shard=7 evaluated=22880 valid=385 edp=42c90f2a4acc0000 best=15ef8d52ccba4fc7 cost=e128db140bbaad27 trace=2/339e67f7e16621c6",
		"merged shard=2 objective=42c826df387c0000 evaluated=195520 valid=16948 best=9b7ebab35a83b13a",
	},
	"conv8x4x3": {
		"shard=0 evaluated=24960 valid=5496 edp=41bf1ab199999999 best=c323707a875e8ea9 cost=f4c20406386b1477 trace=20/6f51139e9129e759",
		"shard=1 evaluated=24960 valid=4696 edp=41bf1ab199999999 best=37259431036d4393 cost=f4c20406386b1477 trace=19/9d51bc234df0eb10",
		"shard=2 evaluated=24960 valid=1886 edp=41bf1ab199999999 best=1655c86f79b453e9 cost=f4c20406386b1477 trace=13/d951293d1e05b9b0",
		"shard=3 evaluated=24960 valid=1400 edp=41bf1ab199999999 best=2f0dfa2fc767f913 cost=f4c20406386b1477 trace=17/ee6f8403cce1c7a0",
		"shard=4 evaluated=24960 valid=665 edp=41c18a2719999999 best=510a7553a0f4170f cost=be8ca3d1c994139a trace=15/13560985f0491842",
		"shard=5 evaluated=24960 valid=263 edp=41c7b48b99999999 best=98ebdf8628878447 cost=5ffdd56463ec1452 trace=15/7465dc7b139e7a01",
		"shard=6 evaluated=24960 valid=258 edp=41c7b0171eb851eb best=5ce36842874545d4 cost=57610e5f445615e2 trace=15/01fb07c05feee0e8",
		"shard=7 evaluated=12480 valid=126 edp=41c7ad1ecccccccc best=93668cf0ea3a83e5 cost=39b01f119cd9b858 trace=15/2b03d1f57b245d15",
		"merged shard=0 objective=41bf1ab199999999 evaluated=187200 valid=14790 best=c4528acb3c3f837a",
	},
	"mm420x180x60": {
		"shard=0 evaluated=26000 valid=8543 edp=42e7cae6d177c000 best=ca8795c37af3b128 cost=96bc10bace8df9ac trace=30/9207c212c2cd0260",
		"shard=1 evaluated=26000 valid=2565 edp=42e760413128c000 best=201dda5aa73a35cf cost=641f214032e0fe99 trace=25/53df2aeec3ca3fde",
		"shard=2 evaluated=26000 valid=2582 edp=42e838af6ef64000 best=e8029ba7434e916a cost=9d42e3ec572c239e trace=19/ad30595daca0502e",
		"shard=3 evaluated=26000 valid=859 edp=42e766872b87c000 best=a82e8bb1afa85ef8 cost=e37b8e3b24379c66 trace=15/7828e6266e9bb91c",
		"shard=4 evaluated=26000 valid=1605 edp=42e68faa6c520000 best=75155e04be0fad9c cost=f99e7a1c570f2378 trace=12/6c12c6c5a85ce8db",
		"shard=5 evaluated=26000 valid=467 edp=42f1d182c314e000 best=e548dabd3c122f68 cost=6a8926902d31305c trace=14/d539eb4b2e774302",
		"shard=6 evaluated=26000 valid=632 edp=42ec753e43f38000 best=03962b7af9932743 cost=a8aa8e82690a74b4 trace=12/4e7adfddf39da0e8",
		"shard=7 evaluated=26000 valid=400 edp=42e7afb79486c000 best=c62d80a4ccd7a548 cost=3486748ff9e25a3a trace=10/3dcf32fc4e7ec929",
		"merged shard=4 objective=42e68faa6c520000 evaluated=208000 valid=17653 best=0dc12c74c9ed35c5",
	},
}

// shardDigest renders one shard result in exhaustiveFleetGolden's form.
func shardDigest(t *testing.T, i int, res *search.Result) string {
	t.Helper()
	var best []byte
	if res.Best != nil {
		raw, err := res.Best.Encode()
		if err != nil {
			t.Fatal(err)
		}
		best = raw
	}
	bh := sha256.Sum256(best)
	ch := sha256.Sum256([]byte(fmt.Sprintf("%#v", res.BestCost)))
	th := sha256.Sum256([]byte(fmt.Sprintf("%v", res.Trace)))
	return fmt.Sprintf("shard=%d evaluated=%d valid=%d edp=%016x best=%x cost=%x trace=%d/%x",
		i, res.Evaluated, res.Valid, math.Float64bits(res.BestCost.EDP), bh[:8], ch[:8], len(res.Trace), th[:8])
}

// The in-place scan must reproduce, shard for shard, the answers recorded
// at the scan it replaced, and RunLocal must merge them the same way.
func TestExhaustiveFleetShapesGolden(t *testing.T) {
	ctx := context.Background()
	for _, shape := range goldenFleetShapes {
		spec := &JobSpec{
			Workload: json.RawMessage(shape),
			Arch:     json.RawMessage(`{"name": "toy", "levels": [{"name": "DRAM"}, {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}]}`),
			Mapspace: "ruby-s", Search: "exhaustive",
		}
		ev, sp, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(sp, "exhaustive", 1, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		eng := engine.Config{CacheEntries: localCacheEntries}.New(ev)
		for _, sh := range plan.Shards {
			res := search.Exhaustive(ctx, sp, eng, sh.Options(search.Options{Algo: "exhaustive", Threads: 2}), 0)
			got = append(got, shardDigest(t, sh.Index, res))
		}
		m, err := RunLocal(ctx, spec, plan)
		if err != nil {
			t.Fatal(err)
		}
		bh := sha256.Sum256(m.Best)
		got = append(got, fmt.Sprintf("merged shard=%d objective=%016x evaluated=%d valid=%d best=%x",
			m.BestShard, math.Float64bits(m.BestObjective), m.Evaluated, m.Valid, bh[:8]))
		var name struct{ Name string }
		if err := json.Unmarshal([]byte(shape), &name); err != nil {
			t.Fatal(err)
		}
		if want := exhaustiveFleetGolden[name.Name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\ngot  %q\nwant %q", name.Name, got, want)
		}
	}
}
