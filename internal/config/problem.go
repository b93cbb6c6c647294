package config

import (
	"encoding/json"
	"fmt"

	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// Problem is the /v1 problem spec: a workload on an architecture, searched
// in a named mapspace for an objective. The server's /v1/search, /v1/jobs,
// /v1/evaluate and /v1/construct bodies carry it, and dist ships it to
// every worker of a sharded search (dist.JobSpec is this type). Workload,
// Arch and Constraints use the file schemas of this package.
type Problem struct {
	Workload    json.RawMessage `json:"workload"`
	Arch        json.RawMessage `json:"arch"`
	Constraints json.RawMessage `json:"constraints,omitempty"`
	// Mapspace names the mapspace kind (mapspace.ParseKind; "" = Ruby-S).
	Mapspace string `json:"mapspace,omitempty"`
	// Search names the algorithm (search.Algorithms; "" = the server's
	// default, else random).
	Search string `json:"search,omitempty"`
	// Objective names the minimized metric (search.ParseObjective; "" = EDP).
	Objective string `json:"objective,omitempty"`
	// NoImprove stops a stochastic search after this many consecutive
	// non-improving valid mappings (0 = off unless no budget is set).
	NoImprove int64 `json:"no_improve,omitempty"`
}

// Resolve parses the problem into the evaluator and mapspace a search runs
// over. It is the one place a JSON problem becomes model objects, so the
// server, a distributed coordinator and its workers agree on the space.
func (p *Problem) Resolve() (*nest.Evaluator, *mapspace.Space, error) {
	if len(p.Workload) == 0 || len(p.Arch) == 0 {
		return nil, nil, fmt.Errorf("workload and arch are required")
	}
	w, err := ParseWorkload(p.Workload)
	if err != nil {
		return nil, nil, err
	}
	a, err := ParseArch(p.Arch)
	if err != nil {
		return nil, nil, err
	}
	ev, err := nest.NewEvaluator(w, a)
	if err != nil {
		return nil, nil, err
	}
	cons := mapspace.Constraints{}
	if len(p.Constraints) > 0 {
		if cons, err = ParseConstraints(p.Constraints); err != nil {
			return nil, nil, err
		}
	}
	kind, err := mapspace.ParseKind(p.Mapspace)
	if err != nil {
		return nil, nil, err
	}
	return ev, mapspace.New(w, a, kind, cons), nil
}

// SearchRequest is the body of POST /v1/search and POST /v1/jobs: the
// problem plus the search budget. The server decodes it, persists it in
// its job records, and dist.Client encodes it to submit a shard.
type SearchRequest struct {
	Problem
	Seed           int64 `json:"seed,omitempty"`
	Threads        int   `json:"threads,omitempty"`
	MaxEvaluations int64 `json:"max_evaluations,omitempty"`
	// TimeoutMS bounds the search's wall time; on expiry the best mapping
	// found so far is returned (or 504 when none was found yet).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Shard marks the request as one shard of a coordinated distributed
	// search. Jobs only: the synchronous /v1/search rejects it. A shard
	// job is exact — no default evaluation cap is applied, and a shard
	// whose range holds no valid mapping completes "done" with a null
	// mapping instead of failing.
	Shard *ShardSpec `json:"shard,omitempty"`
	// Resume seeds the job from a caller-held search snapshot (the
	// checkpoint SearchState payload), used by the coordinator when
	// re-queuing a shard whose original worker died. A local checkpoint
	// file in the state directory takes precedence. Jobs only.
	Resume json.RawMessage `json:"resume,omitempty"`
}

// ShardSpec assigns a distributed-coordination shard to a job (the "shard"
// field; docs/DISTRIBUTED.md). ChainLo == ChainHi means no enumeration
// restriction — the shard's identity is then the seed (RNG substream);
// otherwise the exhaustive scan is confined to leading-dimension chain
// indices [ChainLo, ChainHi).
type ShardSpec struct {
	Index   int `json:"index"`
	ChainLo int `json:"chain_lo"`
	ChainHi int `json:"chain_hi"`
}
