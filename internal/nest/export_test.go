package nest

import "ruby/internal/mapping"

// Hooks for the external test package: its tests draw mappings from
// mapspace, which imports nest, so they cannot live in package nest.

// TileVolumes exposes Evaluator.tileVolumes.
func (e *Evaluator) TileVolumes(chains map[string]mapping.Chain) [][]int64 {
	return e.tileVolumes(chains)
}

// CyclesAlong exposes Evaluator.cyclesAlong.
func (e *Evaluator) CyclesAlong(ch mapping.Chain) float64 { return e.cyclesAlong(ch) }
