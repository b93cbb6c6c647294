package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// network-fused: sweep.SearchNetwork with fusion on ResNet-50 on the
// Eyeriss-like array, the `rubymap -network resnet50` path. The only
// workload through sweep (layer scheduling across networkParallel workers,
// segment search, greedy selection), nest.FusedEvaluator and the
// FuseTile-constrained mapspace; no cache, HTTP or dist.

// networkParallel is the number of layers searched concurrently: one per
// CPU of the two-CPU machine the benchmark is sized for.
const networkParallel = 2

// networkStrategies are the mapspaces a round searches the network under.
var networkStrategies = []sweep.Strategy{
	{Name: "Ruby-S", Kind: mapspace.RubyS},
	{Name: "PFM", Kind: mapspace.PFM},
}

type networkRunner struct {
	e    *env
	net  *workload.Network
	arch *arch.Arch
	// wrong is the first fused result that failed its check.
	wrong error

	// Traced rounds only.
	probe       probe
	layerValid  int64
	fusedEvals  int64
	kept, edges int
}

func startNetwork(ctx context.Context, e *env) (runner, error) {
	n := &networkRunner{e: e, net: workloads.ResNet50Network(), arch: arch.EyerissLike(14, 12, 128)}
	for _, st := range networkStrategies {
		if _, err := n.op(ctx, st, e.seed*1000+999, e.size.networkWarmEvals); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func (n *networkRunner) round(ctx context.Context, r int) []sample {
	order := rand.New(rand.NewSource(n.e.seed*1000 + int64(r))).Perm(len(networkStrategies))
	out := make([]sample, 0, len(order))
	for _, i := range order {
		s, err := n.op(ctx, networkStrategies[i], n.e.seed*1000+int64(r), n.e.size.networkEvals)
		if err != nil {
			s.failed = true
		}
		out = append(out, s)
	}
	return out
}

// op searches the network once under strategy st. Its evals count the
// per-layer searches' evaluations; the fused-pair evaluations of the kept
// segments are nest.fused_evals_per_op.
func (n *networkRunner) op(ctx context.Context, st sweep.Strategy, seed, evals int64) (sample, error) {
	traced := obs.RecorderFrom(ctx) != nil
	so := sweep.SuiteOptions{
		Search:   search.Options{Seed: seed, Threads: 1, MaxEvaluations: evals},
		Parallel: networkParallel,
	}
	if traced {
		so.Engine = engine.Config{Metrics: &n.probe, LatencySampleEvery: 1}
	}
	ctx, span := obs.StartSpan(ctx, "op")
	start := time.Now()
	nr, err := sweep.SearchNetwork(ctx, n.net, n.arch, st, mapspace.EyerissRowStationary, so, true)
	s := sample{dur: time.Since(start)}
	span.End()
	if err != nil {
		return s, err
	}
	for _, lr := range nr.Baseline.Layers {
		s.evals += lr.Search.Evaluated
		if traced {
			n.layerValid += lr.Search.Valid
		}
	}
	s.edp = nr.EDP
	if traced {
		n.kept += len(nr.Segments)
		n.edges += len(n.net.Edges)
		for _, sg := range nr.Segments {
			n.fusedEvals += sg.Evaluated
		}
	}
	// Fusion keeps a segment only when it strictly lowers the network EDP,
	// and ResNet-50's bottleneck chains always have one that does.
	if n.wrong == nil && !(nr.EDP < nr.Baseline.EDP) {
		n.wrong = fmt.Errorf("network-fused %s seed %d: fused EDP %v not below per-layer EDP %v (%d segments kept)",
			st.Name, seed, nr.EDP, nr.Baseline.EDP, len(nr.Segments))
	}
	return s, nil
}

func (n *networkRunner) layers(_ context.Context, w *window, spans map[string]spanStat) map[string]float64 {
	ops := float64(len(w.samples))
	opT := float64(spans["op"].Total)
	layersT := float64(spans["layer:*"].Total)
	var suiteT float64
	for _, st := range networkStrategies {
		suiteT += float64(spans["suite:"+st.Name].Total)
	}
	lm := map[string]float64{
		"sweep.layers_frac":        ratio(layersT, opT*networkParallel),
		"sweep.segments_frac":      ratio(float64(spans["segment:*"].Total), opT),
		"sweep.parallel_eff":       ratio(layersT, suiteT*networkParallel),
		"sweep.segments_kept_frac": ratio(float64(n.kept), float64(n.edges)),
		"sweep.layer_self_frac":    ratio(float64(spans["layer:*"].Self), layersT),
		"nest.fused_evals_per_op":  float64(n.fusedEvals) / ops,
		"nest.evals_per_op":        float64(w.evals()) / ops,
		"mapspace.valid_frac":      ratio(float64(n.layerValid), float64(w.evals())),
	}
	putEngine(lm, n.probe.counters(), w.opSeconds())
	return lm
}

func (n *networkRunner) check() error { return n.wrong }
func (n *networkRunner) close()       {}
