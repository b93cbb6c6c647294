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

// TestDeepHierarchyPipeline drives the four-level Eyeriss-v2-like preset end
// to end: six-slot chains must sample, validate and evaluate across all
// mapspace kinds, and Ruby-S must still find at least as good a mapping as
// PFM on a misaligned channel count.
func TestDeepHierarchyPipeline(t *testing.T) {
	a := arch.EyerissV2Like(6, 4, 64)
	if got := a.TotalLanes(); got != 24 {
		t.Fatalf("lanes = %d", got)
	}
	slots := mapping.Slots(a)
	// DRAM T; GLB T + SX; Cluster T + SX; PE T.
	if len(slots) != 6 {
		t.Fatalf("slots = %d: %+v", len(slots), slots)
	}

	w := workload.MustConv2D(workload.Conv2DParams{N: 1, M: 50, C: 10, P: 13, Q: 13, R: 3, S: 3})
	ev := nest.MustEvaluator(w, a)
	cons := mapspace.Constraints{SpatialX: []string{"M", "C", "Q"}}

	best := map[mapspace.Kind]float64{}
	for _, kind := range mapspace.Kinds {
		sp := mapspace.New(w, a, kind, cons)
		rng := rand.New(rand.NewSource(31))
		bestEDP := -1.0
		valid := 0
		for i := 0; i < 8000; i++ {
			m := sp.Sample(rng)
			c := ev.Evaluate(m)
			if !c.Valid {
				continue
			}
			valid++
			if bestEDP < 0 || c.EDP < bestEDP {
				bestEDP = c.EDP
			}
		}
		if valid == 0 {
			t.Fatalf("%v: no valid mapping on the deep hierarchy", kind)
		}
		best[kind] = bestEDP
	}
	if best[mapspace.RubyS] > best[mapspace.PFM]*1.02 {
		t.Errorf("Ruby-S best %g worse than PFM %g on deep hierarchy",
			best[mapspace.RubyS], best[mapspace.PFM])
	}
}

// TestDeepHierarchyWeightPath: weights bypass both the GLB and the cluster
// scratchpad is shared... in this preset weights may live in the cluster
// buffer and the PE spads; the GLB never sees them.
func TestDeepHierarchyWeightPath(t *testing.T) {
	a := arch.EyerissV2Like(4, 4, 64)
	m := &mapping.Mapping{}
	glb := m.KeptRoles(a, 1)
	if glb[workload.Weight] {
		t.Error("GLB should bypass weights")
	}
	cluster := m.KeptRoles(a, 2)
	if !cluster[workload.Weight] {
		t.Error("cluster buffer should accept weights")
	}
}

// TestDeepHierarchyTileMonotonicity: along any sampled chain, per-level tile
// volumes must be monotonically non-increasing from DRAM to the PEs for
// every tensor (a structural invariant of the boundary definitions).
func TestDeepHierarchyTileMonotonicity(t *testing.T) {
	a := arch.EyerissV2Like(6, 4, 64)
	w := workload.MustMatmul("mm", 48, 36, 60)
	ev := nest.MustEvaluator(w, a)
	sp := mapspace.New(w, a, mapspace.Ruby, mapspace.Constraints{})
	rng := rand.New(rand.NewSource(32))
	checked := 0
	for i := 0; i < 2000 && checked < 100; i++ {
		m := sp.Sample(rng)
		chains, err := m.Chains(w, ev.Slots)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		vols := ev.TileVolumes(chains)
		for ti := range w.Tensors {
			for li := 1; li < len(a.Levels); li++ {
				if vols[li][ti] > vols[li-1][ti] {
					t.Fatalf("tensor %d tile grows inward: level %d vol %d > level %d vol %d",
						ti, li, vols[li][ti], li-1, vols[li-1][ti])
				}
			}
		}
	}
}
