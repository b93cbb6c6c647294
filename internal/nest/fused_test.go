package nest_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// fusedFixture is a pointwise producer feeding a 3x3 consumer (halo) on an
// Eyeriss-like hierarchy with a shared GLB at level 1.
func fusedFixture(t *testing.T) (workload.EdgeBinding, *arch.Arch) {
	t.Helper()
	prod := workload.MustConv2D(workload.Conv2DParams{
		Name: "p", N: 1, M: 16, C: 4, P: 14, Q: 14, R: 1, S: 1})
	cons := workload.MustConv2D(workload.Conv2DParams{
		Name: "c", N: 1, M: 8, C: 16, P: 14, Q: 14, R: 3, S: 3})
	net := workload.MustNetwork("fx",
		[]workload.Node{{Name: "p", Work: prod}, {Name: "c", Work: cons}},
		[]workload.Edge{{From: "p", To: "c", Dims: map[string]string{
			"N": "N", "M": "C", "P": "P", "Q": "Q"}}})
	b, err := net.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	return b, arch.EyerissLike(4, 3, 2)
}

func costsIdentical(a, b nest.Cost) bool {
	if a.Valid != b.Valid || a.Reason != b.Reason {
		return false
	}
	if a.Cycles != b.Cycles || a.EnergyPJ != b.EnergyPJ || a.EDP != b.EDP ||
		a.Utilization != b.Utilization || a.MACs != b.MACs ||
		a.NoCEnergyPJ != b.NoCEnergyPJ || a.StaticEnergyPJ != b.StaticEnergyPJ ||
		a.BandwidthBound != b.BandwidthBound {
		return false
	}
	for li := range a.LevelReads {
		if a.LevelReads[li] != b.LevelReads[li] || a.LevelWrites[li] != b.LevelWrites[li] ||
			a.LevelEnergyPJ[li] != b.LevelEnergyPJ[li] {
			return false
		}
	}
	return true
}

// Fusion-disabled network evaluation must be bit-identical to the existing
// per-layer path: same mappings, same Costs, field for field.
func TestFusedDisabledMatchesPerLayer(t *testing.T) {
	b, a := fusedFixture(t)
	fe, err := nest.NewFusedEvaluator(b, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	pev := nest.MustEvaluator(b.Prod.Work, a)
	cev := nest.MustEvaluator(b.Cons.Work, a)

	psp := mapspace.New(b.Prod.Work, a, mapspace.RubyS, mapspace.Constraints{})
	csp := mapspace.New(b.Cons.Work, a, mapspace.RubyS, mapspace.Constraints{})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		pm, cm := psp.Sample(rng), csp.Sample(rng)
		dis := fe.EvaluateDisabled(pm, cm)
		pc := pev.Evaluate(pm)
		cc := cev.Evaluate(cm)
		if !pc.Valid || !cc.Valid {
			if dis.Valid {
				t.Fatalf("sample %d: disabled evaluation valid but per-layer invalid", i)
			}
			continue
		}
		if !dis.Valid {
			t.Fatalf("sample %d: disabled evaluation invalid: %s", i, dis.Reason)
		}
		if !costsIdentical(dis.Producer, pc) {
			t.Fatalf("sample %d: producer cost diverges from per-layer path", i)
		}
		if !costsIdentical(dis.Consumer, cc) {
			t.Fatalf("sample %d: consumer cost diverges from per-layer path", i)
		}
		if dis.Cycles != pc.Cycles+cc.Cycles || dis.EnergyPJ != pc.EnergyPJ+cc.EnergyPJ ||
			dis.EDP != dis.EnergyPJ*dis.Cycles {
			t.Fatalf("sample %d: combined metrics are not the phase sums", i)
		}
	}
}

// A valid fused evaluation must strictly beat the fusion-disabled one: the
// intermediate's DRAM words disappear from both phases' level-0 traffic and
// from the energy total.
func TestFusedEvaluateElidesDRAM(t *testing.T) {
	b, a := fusedFixture(t)
	fe, err := nest.NewFusedEvaluator(b, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	csp := mapspace.New(b.Cons.Work, a, mapspace.RubyS, mapspace.Constraints{})
	cev := nest.MustEvaluator(b.Cons.Work, a)
	pev := nest.MustEvaluator(b.Prod.Work, a)
	rng := rand.New(rand.NewSource(5))

	found := 0
	for i := 0; i < 4000 && found < 5; i++ {
		cm := csp.Sample(rng)
		if !cev.Evaluate(cm).Valid {
			continue
		}
		ft, err := mapspace.FuseTileOf(b, a, cm, 1)
		if err != nil {
			t.Fatal(err)
		}
		psp := mapspace.New(b.Prod.Work, a, mapspace.RubyS, mapspace.Constraints{
			FuseTile: ft, FuseLevel: 1})
		pm := psp.Sample(rng)
		if !pev.Evaluate(pm).Valid {
			continue
		}
		fc := fe.Evaluate(pm, cm)
		if !fc.Valid {
			continue
		}
		found++
		dis := fe.EvaluateDisabled(pm, cm)
		if !dis.Valid {
			t.Fatal("disabled evaluation of a fused-valid pair is invalid")
		}
		if fc.ElidedWords <= 0 {
			t.Fatalf("fused pair elided %v words", fc.ElidedWords)
		}
		if fc.EnergyPJ >= dis.EnergyPJ {
			t.Fatalf("fused energy %v not below disabled %v", fc.EnergyPJ, dis.EnergyPJ)
		}
		if fc.EDP >= dis.EDP {
			t.Fatalf("fused EDP %v not below disabled %v", fc.EDP, dis.EDP)
		}
		if fc.Cycles > dis.Cycles {
			t.Fatalf("fused cycles %v above disabled %v", fc.Cycles, dis.Cycles)
		}
		// The level-0 traffic drop accounts exactly for the elided words.
		drop := (dis.Producer.LevelWrites[0] - fc.Producer.LevelWrites[0]) +
			(dis.Producer.LevelReads[0] - fc.Producer.LevelReads[0]) +
			(dis.Consumer.LevelReads[0] - fc.Consumer.LevelReads[0])
		if drop != fc.ElidedWords {
			t.Fatalf("DRAM traffic drop %v != elided words %v", drop, fc.ElidedWords)
		}
	}
	if found == 0 {
		t.Fatal("no fused-valid pair found in 4000 samples")
	}
}

// Misaligned producer tiles must be rejected with a tile-alignment reason.
func TestFusedEvaluateRejectsMisalignment(t *testing.T) {
	b, a := fusedFixture(t)
	fe, err := nest.NewFusedEvaluator(b, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	csp := mapspace.New(b.Cons.Work, a, mapspace.RubyS, mapspace.Constraints{})
	psp := mapspace.New(b.Prod.Work, a, mapspace.RubyS, mapspace.Constraints{})
	cev := nest.MustEvaluator(b.Cons.Work, a)
	pev := nest.MustEvaluator(b.Prod.Work, a)
	rng := rand.New(rand.NewSource(9))
	sawAlign := false
	for i := 0; i < 3000 && !sawAlign; i++ {
		pm, cm := psp.Sample(rng), csp.Sample(rng)
		if !pev.Evaluate(pm).Valid || !cev.Evaluate(cm).Valid {
			continue
		}
		fc := fe.Evaluate(pm, cm)
		if !fc.Valid && strings.Contains(fc.Reason, "advance") {
			sawAlign = true
		}
	}
	if !sawAlign {
		t.Fatal("no unconstrained pair tripped the tile-alignment check")
	}
}

func TestNewFusedEvaluatorRejectsBadLevel(t *testing.T) {
	b, a := fusedFixture(t)
	if _, err := nest.NewFusedEvaluator(b, a, len(a.Levels)); err == nil {
		t.Fatal("fuse level beyond the hierarchy accepted")
	}
}

// fusedEvaluateDigest pins Evaluate over the pairs of
// TestFusedProducerHalfMatchesEvaluate, bit for bit and reason for reason.
// It was recorded from the single-function fused kernel the consumer and
// producer halves replaced.
const fusedEvaluateDigest = "94b1458ca0c5d801820c0dab61d289bf7984c7ea1284691b272f0de04ed9749d"

// hashFused feeds every field of a fused verdict into h.
func hashFused(h hash.Hash, fc nest.FusedCost) {
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	cost := func(c nest.Cost) {
		fmt.Fprintf(h, "%v|%s|%s|", c.Valid, c.Reason, c.BandwidthBound)
		for _, v := range []float64{c.Cycles, c.EnergyPJ, c.EDP, c.Utilization, c.MACs,
			c.MACEnergyPJ, c.NoCEnergyPJ, c.StaticEnergyPJ} {
			f(v)
		}
		for li := range c.LevelReads {
			f(c.LevelReads[li])
			f(c.LevelWrites[li])
			f(c.LevelEnergyPJ[li])
		}
	}
	fmt.Fprintf(h, "%v|%s|", fc.Valid, fc.Reason)
	cost(fc.Producer)
	cost(fc.Consumer)
	for _, v := range []float64{fc.Cycles, fc.EnergyPJ, fc.EDP, fc.ElidedWords} {
		f(v)
	}
}

// The producer half against a consumer bound once must price every producer
// exactly as Evaluate(pm, cm) does on a separate evaluator, field for field,
// valid and invalid verdicts alike. The pairs cover every ResNet-50 edge:
// fusable consumers and some that fail a consumer-side check, each with
// producers drawn inside its fused-tile constraint (three in four
// consumers) or unconstrained.
func TestFusedProducerHalfMatchesEvaluate(t *testing.T) {
	net := workloads.ResNet50Network()
	a := arch.EyerissLike(14, 12, 128)
	binds, err := net.Bindings()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rng := rand.New(rand.NewSource(42))
	pairs, valid := 0, 0
	for _, b := range binds {
		ref, err := nest.NewFusedEvaluator(b, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		half, err := nest.NewFusedEvaluator(b, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		csp := mapspace.New(b.Cons.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(b.Cons.Work))
		free := mapspace.New(b.Prod.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(b.Prod.Work))
		fusable, other := 0, 0
		for i := 0; i < 4000 && fusable < 30; i++ {
			cm := csp.Sample(rng)
			_, ok := ref.ConsumerFusable(cm)
			switch {
			case ok:
				fusable++
			case other < 10 && i%8 == 0:
				other++
			default:
				continue
			}
			psp := free
			if ft, err := mapspace.FuseTileOf(b, a, cm, 1); err == nil && i%4 != 0 {
				pc := mapspace.EyerissRowStationary(b.Prod.Work)
				pc.FuseTile, pc.FuseLevel = ft, 1
				psp = mapspace.New(b.Prod.Work, a, mapspace.RubyS, pc)
			}
			if half.BindConsumer(cm) != ok {
				t.Fatalf("edge %d: BindConsumer says %v, ConsumerFusable %v", b.EdgeIndex, !ok, ok)
			}
			for j := 0; j < 20; j++ {
				pm := psp.Sample(rng)
				want := ref.Evaluate(pm, cm)
				got := half.EvaluateProducerInto(pm)
				if got.Valid != want.Valid || got.Reason != want.Reason ||
					!costsIdentical(got.Producer, want.Producer) || !costsIdentical(got.Consumer, want.Consumer) ||
					got.Cycles != want.Cycles || got.EnergyPJ != want.EnergyPJ || got.EDP != want.EDP ||
					got.ElidedWords != want.ElidedWords {
					t.Fatalf("edge %d pair %d: producer half %+v, Evaluate %+v", b.EdgeIndex, pairs, got, want)
				}
				pairs++
				if want.Valid {
					valid++
				}
				hashFused(h, want)
			}
		}
	}
	if pairs < 1000 || valid == 0 || valid == pairs {
		t.Fatalf("%d pairs, %d valid: want >= 1000 with both verdicts", pairs, valid)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fusedEvaluateDigest {
		t.Fatalf("Evaluate digest over %d pairs (%d valid) = %s, want %s", pairs, valid, got, fusedEvaluateDigest)
	}
}
