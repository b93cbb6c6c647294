package mapspace

import (
	"ruby/internal/arch"
	"ruby/internal/workload"
)

// PresetConstraints returns the per-workload constraints of a preset
// array's default dataflow (arch.ParsePreset).
func PresetConstraints(df arch.Dataflow) func(*workload.Workload) Constraints {
	switch df {
	case arch.DataflowRowStationary:
		return EyerissRowStationary
	case arch.DataflowSimba:
		return SimbaDataflow
	default:
		return func(*workload.Workload) Constraints { return Constraints{} }
	}
}

// EyerissRowStationary returns the constraint set used for the Eyeriss-like
// baseline (Section IV-A: "we constrain the mapspace to generate mappings
// that conform to the data access patterns amenable to row-stationary
// dataflows"). For convolutions, filter rows/columns and input channels
// spread down the array's Y axis while output columns and output channels
// replicate along X — the allocation style of Fig. 9. GEMMs (dense layers)
// map the reduction dimension on Y and the output dimensions on X.
//
// With AlexNet layer 2 on a 14x12 array these constraints reproduce the
// paper's utilization numbers exactly: PFM reaches Q:3 x M:4 = 12 of 14
// columns and R:5 x C:2 = 10 of 12 rows (71%), while Ruby-S reaches
// Q:7 x M:2 = 14 columns and the same 10 rows (85%).
func EyerissRowStationary(w *workload.Workload) Constraints {
	if isConv(w) {
		return Constraints{
			SpatialX: []string{"Q", "M"},
			SpatialY: []string{"R", "S", "C"},
		}
	}
	return Constraints{
		SpatialX: []string{"M", "N"},
		SpatialY: []string{"K"},
	}
}

// EyerissStrictRowStationary returns the tighter row-stationary constraint
// set matching the paper's Fig. 9 allocation arithmetic: filter rows are
// pinned to the array's rows and output columns to the array's columns
// (Eyeriss's physical dataflow). Under these constraints perfect
// factorization of AlexNet layer 2 tops out at Q:3 x M:4 = 12 of 14 columns
// and R:5 x C:2 = 10 of 12 rows — the paper's 71% — while Ruby-S reaches
// Q:7 x M:2 = 14 columns (85%). The milder EyerissRowStationary is the
// default elsewhere because pinning Q and R cripples pointwise layers.
func EyerissStrictRowStationary(w *workload.Workload) Constraints {
	if isConv(w) {
		return Constraints{
			SpatialX:        []string{"Q", "M"},
			SpatialY:        []string{"R", "C"},
			RequireSpatialX: []string{"Q"},
			RequireSpatialY: []string{"R"},
		}
	}
	return EyerissRowStationary(w)
}

// SimbaDataflow returns the constraint set for the Simba-like architecture
// (Section IV-C: "PE-level parallelism across the input channel (C) and
// output channel (M) dimensions"). Both the PE fanout and the vector-MAC
// lanes carry channel dimensions.
func SimbaDataflow(w *workload.Workload) Constraints {
	if isConv(w) {
		return Constraints{
			SpatialX: []string{"C", "M"},
			SpatialY: []string{"C", "M"},
		}
	}
	return Constraints{
		SpatialX: []string{"M", "K"},
		SpatialY: []string{"M", "K"},
	}
}

// SystolicDataflow returns the constraint set for the TPU-like systolic
// preset: the reduction dimension flows down the array's rows (Y) while
// output columns spread across X — output-stationary accumulation for GEMMs,
// with input channels down Y for convolutions.
func SystolicDataflow(w *workload.Workload) Constraints {
	if isConv(w) {
		return Constraints{
			SpatialX: []string{"M"},
			SpatialY: []string{"C", "R", "S"},
		}
	}
	return Constraints{
		SpatialX: []string{"N", "M"},
		SpatialY: []string{"K"},
	}
}

func isConv(w *workload.Workload) bool {
	for _, d := range w.Dims {
		if d.Name == "R" {
			return true
		}
	}
	return false
}
