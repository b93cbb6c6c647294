package arch

import (
	"fmt"
	"strconv"
	"strings"

	"ruby/internal/workload"
)

// Words converts a KiB figure to 16-bit words.
func Words(kib int) int64 { return int64(kib) * 1024 / 2 }

// Dataflow names the mapspace constraints a preset array is built for;
// mapspace.PresetConstraints turns it into per-workload constraints.
type Dataflow uint8

const (
	// DataflowNone leaves the mapspace unconstrained (toy arrays).
	DataflowNone Dataflow = iota
	// DataflowRowStationary is Eyeriss's row-stationary dataflow.
	DataflowRowStationary
	// DataflowSimba spreads channels over the Simba-like PEs and lanes.
	DataflowSimba
)

// ParsePreset builds a preset architecture from its command-line spelling
// (case-insensitive) and returns the preset's default dataflow with it:
//
//	eyeriss:COLSxROWS:GLBKiB  EyerissLike, row-stationary
//	simba:PES:UNITSxWIDTH     SimbaLike, Simba dataflow
//	toy:PES:SPADWORDS         ToyLinear, unconstrained
func ParsePreset(spec string) (*Arch, Dataflow, error) {
	// ints parses a field of non-negative integers joined by "x".
	ints := func(field string) []int {
		var out []int
		for _, p := range strings.Split(field, "x") {
			v, err := strconv.Atoi(p)
			if err != nil || v < 0 {
				return nil
			}
			out = append(out, v)
		}
		return out
	}
	if f := strings.Split(strings.ToLower(strings.TrimSpace(spec)), ":"); len(f) == 3 {
		x, y := ints(f[1]), ints(f[2])
		switch {
		case f[0] == "eyeriss" && len(x) == 2 && len(y) == 1:
			return EyerissLike(x[0], x[1], y[0]), DataflowRowStationary, nil
		case f[0] == "simba" && len(x) == 1 && len(y) == 2:
			return SimbaLike(x[0], y[0], y[1]), DataflowSimba, nil
		case f[0] == "toy" && len(x) == 1 && len(y) == 1:
			return ToyLinear(x[0], int64(y[0])), DataflowNone, nil
		}
	}
	return nil, 0, fmt.Errorf("bad arch spec %q (want eyeriss:COLSxROWS:GLBKiB, simba:PES:UNITSxWIDTH or toy:PES:SPADWORDS)", spec)
}

// EyerissLike builds the paper's baseline architecture (Section II-B): a
// rows x cols grid of PEs, each with dedicated ifmap (depth 12), psum (depth
// 16) and weight (depth 224) scratchpads and a 16-bit MAC; a shared global
// buffer of glbKiB (128 KiB in the baseline) holding activations and partial
// sums; and off-chip DRAM. Weights bypass the GLB and stream directly to the
// PE weight scratchpads, as in Eyeriss. The array network multicasts.
//
// The paper's baseline is EyerissLike(14, 12, 128).
func EyerissLike(cols, rows, glbKiB int) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("eyeriss-like-%dx%d-glb%dKiB", cols, rows, glbKiB),
		Levels: []Level{
			{
				Name: "DRAM",
			},
			{
				Name:     "GLB",
				Capacity: Words(glbKiB),
				Keeps: map[workload.Role]bool{
					workload.Input:  true,
					workload.Output: true,
					// Weights bypass the GLB.
				},
				Fanout: Network{FanoutX: cols, FanoutY: rows, Multicast: true},
			},
			{
				Name: "PE",
				PerRole: map[workload.Role]int64{
					workload.Input:  12,
					workload.Output: 16,
					workload.Weight: 224,
				},
				Fanout: Network{FanoutX: 1, FanoutY: 1},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// SimbaLike builds a Simba-like PE cluster (Section IV-C): numPEs processing
// elements, each containing a shared weight buffer, input buffer and
// accumulation buffer feeding vecUnits vector MACs of vecWidth lanes each.
// The paper's configurations are SimbaLike(15, 4, 4) and SimbaLike(9, 3, 3).
//
// Capacities follow the published Simba PE: 32 KiB weight buffer, 8 KiB
// input buffer, 3 KiB accumulation buffer; the global buffer is 64 KiB.
func SimbaLike(numPEs, vecUnits, vecWidth int) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("simba-like-%dpe-%dx%dw", numPEs, vecUnits, vecWidth),
		Levels: []Level{
			{
				Name: "DRAM",
			},
			{
				Name:     "GLB",
				Capacity: Words(64),
				Keeps: map[workload.Role]bool{
					workload.Input:  true,
					workload.Output: true,
				},
				Fanout: Network{FanoutX: numPEs, FanoutY: 1, Multicast: true},
			},
			{
				Name: "PEBuf",
				PerRole: map[workload.Role]int64{
					workload.Weight: Words(32),
					workload.Input:  Words(8),
					workload.Output: Words(3),
				},
				// Vector datapath: vecUnits vector MACs of vecWidth lanes.
				Fanout: Network{FanoutX: vecWidth, FanoutY: vecUnits, Multicast: true},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// EyerissV2Like builds a hierarchical Eyeriss-v2-style architecture: the
// global buffer fans out to clusters, each cluster owns a shared scratchpad
// and fans out to PEs with per-operand register files. The four-level
// hierarchy produces six-slot tiling chains, exercising imperfect
// factorization at multiple depths simultaneously.
func EyerissV2Like(clusters, pesPerCluster, glbKiB int) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("eyerissv2-like-%dc-%dpe", clusters, pesPerCluster),
		Levels: []Level{
			{Name: "DRAM"},
			{
				Name:     "GLB",
				Capacity: Words(glbKiB),
				Keeps: map[workload.Role]bool{
					workload.Input:  true,
					workload.Output: true,
				},
				Fanout: Network{FanoutX: clusters, FanoutY: 1, Multicast: true},
			},
			{
				Name:     "Cluster",
				Capacity: Words(12),
				Fanout:   Network{FanoutX: pesPerCluster, FanoutY: 1, Multicast: true},
			},
			{
				Name: "PE",
				PerRole: map[workload.Role]int64{
					workload.Input:  12,
					workload.Output: 16,
					workload.Weight: 192,
				},
				Fanout: Network{FanoutX: 1, FanoutY: 1},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// TPULike builds a TPU-v1-style systolic architecture as a further
// robustness target beyond the paper's two baselines: a large unified
// activation buffer and a separate weight FIFO feed a rows x cols MAC grid
// whose accumulators drain to an accumulator SRAM. The grid is modeled as a
// spatial fanout below a small per-cell register level; the systolic
// dataflow's weight-stationarity is expressed through constraints (weights
// resident per cell, reduction down columns).
func TPULike(rows, cols, unifiedKiB int) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("tpu-like-%dx%d", rows, cols),
		Levels: []Level{
			{Name: "DRAM"},
			{
				Name:     "UB", // unified buffer (activations + accumulators)
				Capacity: Words(unifiedKiB),
				Keeps: map[workload.Role]bool{
					workload.Input:  true,
					workload.Output: true,
				},
				Fanout: Network{FanoutX: cols, FanoutY: rows, Multicast: true},
			},
			{
				Name: "Cell",
				PerRole: map[workload.Role]int64{
					workload.Weight: 2, // double-buffered stationary weight
					workload.Input:  2,
					workload.Output: 2,
				},
				Fanout: Network{FanoutX: 1, FanoutY: 1},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// ToyGLB builds the Section II-D illustration architecture: DRAM, a small
// global buffer of glbWords words, and a fanout of numPEs storage-less PEs
// (the paper's Figs. 4-5 use ToyGLB(6, 512) — 6 PEs, 1 KiB GLB).
func ToyGLB(numPEs int, glbWords int64) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("toy-glb-%dpe", numPEs),
		Levels: []Level{
			{Name: "DRAM"},
			{
				Name:     "GLB",
				Capacity: glbWords,
				Fanout:   Network{FanoutX: numPEs, FanoutY: 1, Multicast: true},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// ToyLinear builds the Section III-A study architecture: a two-level memory
// hierarchy with numPEs linear PEs, each holding a scratchpad of spadWords
// words (1 KiB = 512 words in the paper).
func ToyLinear(numPEs int, spadWords int64) *Arch {
	a := &Arch{
		Name: fmt.Sprintf("toy-linear-%dpe", numPEs),
		Levels: []Level{
			{
				Name:   "DRAM",
				Fanout: Network{FanoutX: numPEs, FanoutY: 1, Multicast: true},
			},
			{
				Name:     "Spad",
				Capacity: spadWords,
				Fanout:   Network{FanoutX: 1, FanoutY: 1},
			},
		},
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}
