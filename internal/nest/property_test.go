package nest_test

import (
	"math/rand"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
)

// simulateCycles is a brute-force reference for the memoized cycle
// recursion: it literally walks the tiling of one dimension, splitting
// chunks at temporal slots (summing) and spatial slots (taking the largest
// parallel share), one element per innermost step.
func simulateCycles(slots []mapping.Slot, ch mapping.Chain) float64 {
	var walk func(chunk, si int) float64
	walk = func(chunk, si int) float64 {
		if si == len(slots) {
			return 1
		}
		sub := ch.Cum[si+1]
		if slots[si].Spatial() {
			if chunk < sub {
				sub = chunk
			}
			return walk(sub, si+1)
		}
		total := 0.0
		for rem := chunk; rem > 0; rem -= sub {
			c := sub
			if rem < sub {
				c = rem
			}
			total += walk(c, si+1)
		}
		return total
	}
	return walk(ch.Bound, 0)
}

// TestCyclesMatchBruteForce cross-checks the memoized recursion against the
// literal walk over random imperfect chains.
func TestCyclesMatchBruteForce(t *testing.T) {
	a := arch.EyerissLike(14, 12, 64)
	rng := rand.New(rand.NewSource(42))
	w := workload.MustVector1D("d", 2) // placeholder; rebuilt per trial
	e := nest.MustEvaluator(w, a)
	slots := e.Slots

	for trial := 0; trial < 300; trial++ {
		d := rng.Intn(500) + 1
		// Random canonical chain: residual recursion innermost-first.
		factors := make([]int, len(slots))
		r := d
		for i := len(slots) - 1; i >= 0; i-- {
			if i == 0 {
				factors[i] = r
				break
			}
			f := 1 + rng.Intn(r)
			factors[i] = f
			r = (r + f - 1) / f
		}
		ch := mapping.NewChain(d, factors)
		got := e.CyclesAlong(ch)
		want := simulateCycles(slots, ch)
		if got != want {
			t.Fatalf("d=%d factors=%v: cyclesAlong=%g, brute force=%g", d, factors, got, want)
		}
	}
}

// TestCostInvariants samples valid mappings from every mapspace kind and
// asserts fundamental conservation laws of the model.
func TestCostInvariants(t *testing.T) {
	w := workload.MustConv2D(workload.Conv2DParams{N: 1, M: 12, C: 10, P: 14, Q: 13, R: 3, S: 3})
	a := arch.EyerissLike(14, 12, 128)
	e := nest.MustEvaluator(w, a)
	inputSize := float64(w.Size(w.Tensor("I")))
	weightSize := float64(w.Size(w.Tensor("W")))
	outputSize := float64(w.Size(w.Tensor("O")))
	macs := float64(w.MACs())
	lanes := float64(a.TotalLanes())

	rng := rand.New(rand.NewSource(7))
	checked := 0
	for _, kind := range mapspace.Kinds {
		sp := mapspace.New(w, a, kind, mapspace.EyerissRowStationary(w))
		for i := 0; i < 2000 && checked < 400; i++ {
			m := sp.Sample(rng)
			c := e.Evaluate(m)
			if !c.Valid {
				continue
			}
			checked++
			if c.Cycles < macs/lanes-1e-6 {
				t.Fatalf("%v: cycles %g beat the parallelism bound %g", kind, c.Cycles, macs/lanes)
			}
			if c.Utilization <= 0 || c.Utilization > 1+1e-9 {
				t.Fatalf("%v: utilization %g out of range", kind, c.Utilization)
			}
			// Every input and weight word must leave DRAM at least once;
			// every output word must arrive.
			if c.LevelReads[0] < inputSize+weightSize-1e-6 {
				t.Fatalf("%v: DRAM reads %g below tensor sizes %g", kind, c.LevelReads[0], inputSize+weightSize)
			}
			if c.LevelWrites[0] < outputSize-1e-6 {
				t.Fatalf("%v: DRAM writes %g below output size %g", kind, c.LevelWrites[0], outputSize)
			}
			// The datapath reads each operand per MAC somewhere on-chip.
			if c.EnergyPJ < macs*a.Energy.MAC() {
				t.Fatalf("%v: energy below MAC floor", kind)
			}
			if c.EDP != c.EnergyPJ*c.Cycles {
				t.Fatalf("%v: EDP inconsistent", kind)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d valid samples checked", checked)
	}
}

// TestPerfectMappingsNominalTrips: for perfect mappings the exact recursion
// must agree with the plain product of loop trip counts.
func TestPerfectMappingsNominalTrips(t *testing.T) {
	w := workload.MustMatmul("mm", 24, 36, 48)
	a := arch.EyerissLike(12, 12, 128)
	e := nest.MustEvaluator(w, a)
	sp := mapspace.New(w, a, mapspace.PFM, mapspace.Constraints{})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		m := sp.Sample(rng)
		chains, err := m.Chains(w, e.Slots)
		if err != nil {
			t.Fatal(err)
		}
		nominal := 1.0
		for _, d := range w.DimNames() {
			for si, s := range e.Slots {
				if s.Kind == mapping.Temporal {
					nominal *= float64(chains[d].Trips(si))
				}
			}
		}
		exact := 1.0
		for _, d := range w.DimNames() {
			exact *= e.CyclesAlong(chains[d])
		}
		if nominal != exact {
			t.Fatalf("perfect mapping: nominal %g != exact %g (factors %v)", nominal, exact, m.Factors)
		}
	}
}

// TestRubySupersetQuality: the best Ruby-S mapping over an exhaustive toy
// space is never worse than the best PFM mapping (superset guarantee), for
// many random dimension sizes and fanouts.
func TestRubySupersetQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		d := rng.Intn(200) + 2
		pes := rng.Intn(14) + 2
		w := workload.MustVector1D("d", d)
		a := arch.ToyGLB(pes, 4096)
		e := nest.MustEvaluator(w, a)
		best := func(kind mapspace.Kind) float64 {
			sp := mapspace.New(w, a, kind, mapspace.Constraints{FixedPerms: true})
			bestEDP := -1.0
			sp.Enumerate(func(m *mapping.Mapping) bool {
				if c := e.Evaluate(m); c.Valid && (bestEDP < 0 || c.EDP < bestEDP) {
					bestEDP = c.EDP
				}
				return true
			})
			return bestEDP
		}
		pfm, rs := best(mapspace.PFM), best(mapspace.RubyS)
		if pfm < 0 || rs < 0 {
			t.Fatalf("d=%d pes=%d: no valid mapping", d, pes)
		}
		if rs > pfm+1e-9 {
			t.Errorf("d=%d pes=%d: Ruby-S optimum %g worse than PFM %g", d, pes, rs, pfm)
		}
	}
}
