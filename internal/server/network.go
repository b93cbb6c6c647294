package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ruby/internal/config"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// networkRequest asks for a whole-network search: a per-layer baseline over
// every node of a built-in network graph, optionally followed by the
// fusion-aware segment search (sweep.SearchNetwork). The network is named, not
// inline — the graph constructors own the dimension-correspondence edges, and
// GET /v1/suites lists the names.
type networkRequest struct {
	// Network names a built-in network graph (workloads.Networks). Plain
	// suites resolve to edge-free graphs, so they run per-layer.
	Network string `json:"network"`
	// Arch is the architecture spec (same schema as /v1/search).
	Arch json.RawMessage `json:"arch"`
	// Constraints optionally restricts every node's mapspace uniformly.
	Constraints json.RawMessage `json:"constraints,omitempty"`
	Mapspace    string          `json:"mapspace,omitempty"` // default ruby-s
	// Fuse enables the fused-segment search across the network's edges
	// (default true; the per-layer baseline is always reported alongside).
	Fuse           *bool  `json:"fuse,omitempty"`
	Search         string `json:"search,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Threads        int    `json:"threads,omitempty"`
	MaxEvaluations int64  `json:"max_evaluations,omitempty"`
	NoImprove      int64  `json:"no_improve,omitempty"`
	Objective      string `json:"objective,omitempty"`
	// TimeoutMS bounds the whole network search's wall time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// networkTotals is one repeat-weighted whole-network cost summary.
type networkTotals struct {
	TotalEnergyPJ float64 `json:"total_energy_pj"`
	TotalCycles   float64 `json:"total_cycles"`
	EDP           float64 `json:"edp"`
}

// segmentSummary is one selected fused producer→consumer pair.
type segmentSummary struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	Repeat      int     `json:"repeat"`
	FusedEDP    float64 `json:"fused_edp"`
	BaselineEDP float64 `json:"baseline_edp"` // the pair's per-layer EDP product
	ElidedWords float64 `json:"elided_words"`
	GainPJ      float64 `json:"gain_pj"`
	Evaluated   int64   `json:"evaluated"`
}

type networkResponse struct {
	Network  string           `json:"network"`
	Nodes    int              `json:"nodes"`
	Edges    int              `json:"edges"`
	Baseline networkTotals    `json:"baseline"`
	Fused    networkTotals    `json:"fused"`
	Segments []segmentSummary `json:"segments"`
	// ImprovementPct is the fused network EDP's improvement over the
	// per-layer baseline, in percent (0 when nothing fused).
	ImprovementPct float64 `json:"improvement_pct"`
}

func (s *service) handleNetwork(w http.ResponseWriter, r *http.Request) {
	var req networkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	net, err := workloads.NetworkNamed(req.Network)
	if err != nil {
		writeErr(w, CodeInvalidRequest, fmt.Errorf("%w (GET /v1/suites lists them)", err))
		return
	}
	if len(req.Arch) == 0 {
		writeErr(w, CodeInvalidRequest, fmt.Errorf("arch is required"))
		return
	}
	a, err := config.ParseArch(req.Arch)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	kind, err := mapspace.ParseKind(req.Mapspace)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	// The default dataflow mirrors rubysuite: row-stationary styles picked
	// per workload type. Explicit constraints override it uniformly.
	consFn := sweep.ConstraintFn(mapspace.EyerissRowStationary)
	if len(req.Constraints) > 0 {
		cons, err := config.ParseConstraints(req.Constraints)
		if err != nil {
			writeErr(w, CodeInvalidRequest, err)
			return
		}
		consFn = func(*workload.Workload) mapspace.Constraints { return cons }
	}
	opt := search.Options{
		Algo: req.Search, Seed: req.Seed, Threads: req.Threads,
		MaxEvaluations:       req.MaxEvaluations,
		ConsecutiveNoImprove: req.NoImprove,
		Objective:            obj,
	}
	if opt.Algo == "" {
		opt.Algo = s.defaultSearch
	}
	if opt.MaxEvaluations <= 0 && opt.ConsecutiveNoImprove <= 0 {
		// Bound server-side work by default: the budget applies per layer
		// and per fused edge, and networks hold many of each.
		opt.MaxEvaluations = 2000
	}
	fuse := req.Fuse == nil || *req.Fuse

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	st := sweep.Strategy{Name: kind.String(), Kind: kind}
	so := sweep.SuiteOptions{
		Search: opt,
		Engine: engine.Config{CacheEntries: searchCacheEntries, Metrics: s.ins},
	}
	nr, err := sweep.SearchNetwork(ctx, net, a, st, consFn, so, fuse)
	if err != nil {
		code := CodeNoValidMapping
		if ctx.Err() != nil {
			code = CodeSearchTimeout
		}
		writeErr(w, code, err)
		return
	}

	resp := networkResponse{
		Network: net.Name, Nodes: len(net.Nodes), Edges: len(net.Edges),
		Baseline: networkTotals{nr.Baseline.TotalEnergyPJ, nr.Baseline.TotalCycles, nr.Baseline.EDP},
		Fused:    networkTotals{nr.TotalEnergyPJ, nr.TotalCycles, nr.EDP},
		Segments: []segmentSummary{},
	}
	for _, sg := range nr.Segments {
		resp.Segments = append(resp.Segments, segmentSummary{
			From: sg.From, To: sg.To, Repeat: sg.Repeat,
			FusedEDP:    sg.Fused.EDP,
			BaselineEDP: sg.BaselineEnergyPJ * sg.BaselineCycles,
			ElidedWords: sg.Fused.ElidedWords,
			GainPJ:      sg.GainPJ(),
			Evaluated:   sg.Evaluated,
		})
	}
	if nr.Baseline.EDP > 0 {
		resp.ImprovementPct = 100 * (nr.Baseline.EDP - nr.EDP) / nr.Baseline.EDP
	}
	writeJSON(w, http.StatusOK, resp)
}
