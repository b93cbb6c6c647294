package mapspace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// goldenDraws is how many draws each entry point contributes per space.
const goldenDraws = 200

// drawGroup is one named set of spaces whose draws hash to one digest.
type drawGroup struct {
	name   string
	spaces []*Space
}

// drawGroups lists the spaces the draw goldens pin: ResNet-50 and DeepBench
// layers on Eyeriss (row-stationary, strict row-stationary with required
// spatial dims, unconstrained) and Simba (Simba dataflow, unconstrained),
// every kind each; plus FixedPerms with MaxTemporalFactor, ExploreBypass and
// FuseTile variants.
func drawGroups() []drawGroup {
	eyeriss := arch.EyerissLike(14, 12, 128)
	simba := arch.SimbaLike(15, 4, 4)
	free := func(*workload.Workload) Constraints { return Constraints{} }
	rn, db := workloads.ResNet50(), workloads.DeepBench()
	layers := []workloads.Layer{rn[0], rn[3], rn[len(rn)-1], db[6], db[len(db)-1]}
	type setup struct {
		name string
		a    *arch.Arch
		cons func(*workload.Workload) Constraints
	}
	setups := []setup{
		{"eyeriss-rs", eyeriss, EyerissRowStationary},
		{"eyeriss-strict", eyeriss, EyerissStrictRowStationary},
		{"eyeriss-free", eyeriss, free},
		{"simba", simba, SimbaDataflow},
		{"simba-free", simba, free},
	}
	allKinds := func(w *workload.Workload, a *arch.Arch, cons Constraints) []*Space {
		var out []*Space
		for _, k := range Kinds {
			out = append(out, New(w, a, k, cons))
		}
		return out
	}
	var groups []drawGroup
	for _, l := range layers {
		for _, st := range setups {
			groups = append(groups, drawGroup{l.Name + "/" + st.name, allKinds(l.Work, st.a, st.cons(l.Work))})
		}
	}
	for _, l := range []workloads.Layer{rn[3], db[6]} {
		for _, st := range []setup{setups[0], setups[3]} {
			c := st.cons(l.Work)
			c.FixedPerms, c.MaxTemporalFactor = true, 8
			groups = append(groups, drawGroup{l.Name + "/" + st.name + "/fixed-maxT", allKinds(l.Work, st.a, c)})
			c = st.cons(l.Work)
			c.ExploreBypass = true
			groups = append(groups, drawGroup{l.Name + "/" + st.name + "/bypass", allKinds(l.Work, st.a, c)})
		}
	}
	// Fused spaces: advances that rarely divide the bounds, at the GLB.
	w := rn[3].Work
	for _, st := range []setup{setups[0], setups[1], setups[3]} {
		c := st.cons(w)
		c.FuseTile = map[string]int{"P": 6, "Q": 4, "M": 48}
		c.FuseLevel = 1
		groups = append(groups, drawGroup{rn[3].Name + "/" + st.name + "/fuse", allKinds(w, st.a, c)})
	}
	return groups
}

// hashMapping feeds the mapping's string form to h: factors per dimension in
// declaration order, loop orders per level, and every bypass override entry
// (absent, false or true per role).
func hashMapping(h hash.Hash64, w *workload.Workload, m *mapping.Mapping) {
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) { h.Write(buf[:binary.PutVarint(buf[:], int64(v))]) }
	for _, d := range w.Dims {
		put(-1)
		for _, f := range m.Factors[d.Name] {
			put(f)
		}
	}
	for _, p := range m.Perms {
		put(-2)
		for _, d := range p {
			put(int(w.DimID(d)))
		}
	}
	put(-3)
	put(len(m.Keep))
	for _, k := range m.Keep {
		if k == nil {
			put(-4)
			continue
		}
		for _, r := range workload.Roles {
			v, ok := k[r]
			switch {
			case !ok:
				put(0)
			case !v:
				put(1)
			default:
				put(2)
			}
		}
	}
}

// drawDigest hashes goldenDraws seeded draws of each random entry point
// (Sampler.SampleInto, Space.Sample, Mutator.ProposeChainID) over every
// space of the group.
func drawDigest(g drawGroup) uint64 {
	h := fnv.New64a()
	for _, sp := range g.spaces {
		smp := sp.NewSampler()
		rng := rand.New(rand.NewSource(1))
		m := &mapping.Mapping{}
		for i := 0; i < goldenDraws; i++ {
			smp.SampleInto(rng, m)
			hashMapping(h, sp.Work, m)
		}
		rng = rand.New(rand.NewSource(2))
		for i := 0; i < goldenDraws; i++ {
			hashMapping(h, sp.Work, sp.Sample(rng))
		}
		mu := sp.NewMutator()
		rng = rand.New(rand.NewSource(3))
		var buf [binary.MaxVarintLen64]byte
		for i := 0; i < goldenDraws; i++ {
			mv := mu.ProposeChainID(rng, i%mu.NumDims())
			for _, f := range mv.chain {
				h.Write(buf[:binary.PutVarint(buf[:], int64(f))])
			}
		}
	}
	return h.Sum64()
}

// goldenDrawDigests were recorded from the string-scanning sampler the
// compiled rule table replaced: a change to any draw (factor, loop order,
// bypass choice or the rng calls behind them) changes a digest.
var goldenDrawDigests = map[string]uint64{
	"conv1/eyeriss-rs":                          0x4d734236c5517b36,
	"conv1/eyeriss-strict":                      0xfe1e5bbb64677a9b,
	"conv1/eyeriss-free":                        0x42c684e3c8e158b3,
	"conv1/simba":                               0x61733e48d5a68e7c,
	"conv1/simba-free":                          0x71c6cf297dc6cb9e,
	"res2x_branch2b/eyeriss-rs":                 0x95c5aca6c89c630b,
	"res2x_branch2b/eyeriss-strict":             0xd7d227b7a172d43f,
	"res2x_branch2b/eyeriss-free":               0x16b7f099b51990d5,
	"res2x_branch2b/simba":                      0x27d3f354b0965b57,
	"res2x_branch2b/simba-free":                 0xadda56e9a7c01564,
	"fc1000/eyeriss-rs":                         0xe8b8bfe613dd8e6e,
	"fc1000/eyeriss-strict":                     0xe8b8bfe613dd8e6e,
	"fc1000/eyeriss-free":                       0x886534fb65578e98,
	"fc1000/simba":                              0xe86aacb9f53c9b6a,
	"fc1000/simba-free":                         0xe86aacb9f53c9b6a,
	"speech_ds_conv1/eyeriss-rs":                0x2ec8adfa07f62460,
	"speech_ds_conv1/eyeriss-strict":            0x36fbad6e3378f529,
	"speech_ds_conv1/eyeriss-free":              0x9b9affee8605c814,
	"speech_ds_conv1/simba":                     0x3c3bc606da6f27e7,
	"speech_ds_conv1/simba-free":                0x95c11c354af05a9,
	"speaker_gemm_512x1500x2816/eyeriss-rs":     0xd0392cb408819e1e,
	"speaker_gemm_512x1500x2816/eyeriss-strict": 0xd0392cb408819e1e,
	"speaker_gemm_512x1500x2816/eyeriss-free":   0x9624de87a79de348,
	"speaker_gemm_512x1500x2816/simba":          0x5627c1cd845389,
	"speaker_gemm_512x1500x2816/simba-free":     0xcf2be25109edfbc4,
	"res2x_branch2b/eyeriss-rs/fixed-maxT":      0xd69d7b7bd7359302,
	"res2x_branch2b/eyeriss-rs/bypass":          0x6a7699ba712aed44,
	"res2x_branch2b/simba/fixed-maxT":           0xae8e2e1bd2b1d079,
	"res2x_branch2b/simba/bypass":               0xc21f1af53f1af6b8,
	"speech_ds_conv1/eyeriss-rs/fixed-maxT":     0xaf08ed35b1588f70,
	"speech_ds_conv1/eyeriss-rs/bypass":         0xe863e7df909e62b0,
	"speech_ds_conv1/simba/fixed-maxT":          0x3b782ea3a1a95297,
	"speech_ds_conv1/simba/bypass":              0x7d2cd3b9be8176f6,
	"res2x_branch2b/eyeriss-rs/fuse":            0xb743b641087f2693,
	"res2x_branch2b/eyeriss-strict/fuse":        0xfd6ec8bf79701b24,
	"res2x_branch2b/simba/fuse":                 0x2acebb876d25406a,
}

// TestSamplerDrawGolden pins every random draw path to the draws recorded
// before the sampler compiled its rules into a table.
func TestSamplerDrawGolden(t *testing.T) {
	for _, g := range drawGroups() {
		got := drawDigest(g)
		want, ok := goldenDrawDigests[g.name]
		if !ok {
			t.Errorf("no golden digest for %q; this tree draws %#x", g.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: draw digest %#x, want %#x", g.name, got, want)
		}
	}
}

// equalDense reports whether two lowerings match field for field (a nil and
// an empty keep mask are equal: neither overrides any level).
func equalDense(a, b *mapping.Dense) bool {
	return a.NDims == b.NDims && a.NSlots == b.NSlots &&
		slices.Equal(a.Cum, b.Cum) && slices.Equal(a.Perm, b.Perm) && slices.Equal(a.KeepMask, b.KeepMask)
}

// TestSamplerLoweringMatchesDensify checks that the lowering a draw leaves
// on the mapping is exactly what lowering its string form from scratch
// builds, for both sampling entry points.
func TestSamplerLoweringMatchesDensify(t *testing.T) {
	for _, g := range drawGroups() {
		for _, sp := range g.spaces {
			smp := sp.NewSampler()
			rng := rand.New(rand.NewSource(4))
			m := &mapping.Mapping{}
			for i := 0; i < goldenDraws; i++ {
				var got *mapping.Mapping
				if i%2 == 0 {
					smp.SampleInto(rng, m)
					got = m
				} else {
					got = sp.Sample(rng)
				}
				dn, err := got.Dense(sp.Work, sp.Arch, sp.slots)
				if err != nil {
					t.Fatalf("%s %v draw %d: sampled mapping failed to lower: %v", g.name, sp.Kind, i, err)
				}
				want, err := got.Clone().Dense(sp.Work, sp.Arch, sp.slots)
				if err != nil {
					t.Fatalf("%s %v draw %d: clone failed to lower: %v", g.name, sp.Kind, i, err)
				}
				if !equalDense(dn, want) {
					t.Fatalf("%s %v draw %d: installed lowering differs from densify\n got %+v\nwant %+v",
						g.name, sp.Kind, i, *dn, *want)
				}
			}
		}
	}
}

// TestSamplerSharedSpaceConcurrent draws from one Space on several
// goroutines at once, each through its own Sampler and Mutator, and checks
// every goroutine sees exactly the serial draws: the space's tables are
// read-only after New.
func TestSamplerSharedSpaceConcurrent(t *testing.T) {
	w := workloads.ResNet50()[3].Work
	a := arch.EyerissLike(14, 12, 128)
	sp := New(w, a, RubyS, EyerissStrictRowStationary(w))
	serial := func(seed int64) uint64 {
		h := fnv.New64a()
		smp, mu := sp.NewSampler(), sp.NewMutator()
		rng := rand.New(rand.NewSource(seed))
		m := &mapping.Mapping{}
		for i := 0; i < goldenDraws; i++ {
			smp.SampleInto(rng, m)
			hashMapping(h, w, m)
			mv := mu.ProposeChainID(rng, i%mu.NumDims())
			fmt.Fprint(h, mv.chain)
		}
		return h.Sum64()
	}
	const workers = 4
	want := make([]uint64, workers)
	for i := range want {
		want[i] = serial(int64(i))
	}
	got := make([]uint64, workers)
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			got[i] = serial(int64(i))
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("goroutine %d: draws %#x, want serial %#x", i, got[i], want[i])
		}
	}
}
