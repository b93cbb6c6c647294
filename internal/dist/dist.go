// Package dist distributes one mapspace search across a fleet of rubyserve
// workers while keeping the single-node determinism discipline: the merged
// result is a pure function of the problem, the seed and the shard plan —
// independent of worker count, scheduling and failures.
//
// The moving parts:
//
//   - Plan (BuildPlan): a deterministic partition of the search into
//     disjoint shards — contiguous leading-dimension chain ranges for the
//     exhaustive scan ("chain" plans, see mapspace.Space.ShardLeading), or
//     per-shard RNG substreams with a split evaluation budget for the
//     stochastic searchers ("substream" plans; the checkpoint RNG's
//     splitmix64 seeding decorrelates adjacent seeds).
//   - Coordinator: tracks shard leases, held checkpoints and results;
//     re-queues shards whose worker lease expired; merges per-shard
//     incumbents in shard-index order. Its full state serializes
//     (checkpoint kind "shards") so an interrupted coordination run
//     resumes without repeating finished shards.
//   - Fleet: drives a Coordinator against worker base URLs over the
//     /v1/jobs HTTP API (Client), polling job status as the lease
//     heartbeat and collecting worker-side checkpoints so a re-queued
//     shard restarts from its last snapshot instead of from scratch.
//   - RunLocal: the single-node reference execution of the same plan,
//     which the distributed run must match bit-for-bit.
//
// Every shard is itself a checkpoint-resumable search (search.Searcher),
// so a shard re-run — from scratch or from any intermediate snapshot —
// terminates with the identical shard result. That is what makes worker
// loss harmless: checkpoints only save work, they never change answers,
// and the coordinator counts each shard's evaluations exactly once (the
// first accepted completion report).
package dist

import (
	"fmt"
	"slices"
	"strings"

	"ruby/internal/config"
	"ruby/internal/mapspace"
	"ruby/internal/search"
)

// JobSpec is the problem and base search configuration shipped to every
// worker: the /v1 problem spec (config.Problem), forwarded verbatim. Its
// Search must be checkpoint-resumable (search.ResumableAlgorithms), and its
// NoImprove applies per shard (0 = the plan's per-shard evaluation budgets
// bound the work). Resolve turns it into the evaluator and mapspace.
type JobSpec = config.Problem

// Plan partition kinds.
const (
	// PlanChain shards the deterministic enumeration by contiguous
	// leading-dimension chain ranges (exhaustive searches).
	PlanChain = "chain"
	// PlanSubstream shards a stochastic search by RNG substream: every
	// shard runs the same algorithm with its own seed and a slice of the
	// total evaluation budget.
	PlanSubstream = "substream"
)

// Shard is one unit of distributable work.
type Shard struct {
	Index int `json:"index"`
	// Chain is the leading-dimension chain range scanned by this shard
	// (chain plans only; empty for substream plans).
	Chain mapspace.ChainRange `json:"chain"`
	// Seed is the shard's RNG seed (substream plans; chain plans carry the
	// plan seed for uniformity, the scan does not draw).
	Seed int64 `json:"seed"`
	// MaxEvaluations bounds the shard's evaluations (substream plans;
	// 0 on chain plans = scan the whole range).
	MaxEvaluations int64 `json:"max_evaluations,omitempty"`
}

// Options translates the shard into per-shard search options on top of the
// base options.
func (sh Shard) Options(base search.Options) search.Options {
	base.Seed = sh.Seed
	base.MaxEvaluations = sh.MaxEvaluations
	base.Shard = sh.Chain
	return base
}

// Plan is a deterministic partition of one search into disjoint shards. Two
// BuildPlan calls with the same space, algorithm, seed and shard count
// produce identical plans; the plan is part of the distributed determinism
// contract (docs/DISTRIBUTED.md).
type Plan struct {
	Algo string `json:"algo"`
	Seed int64  `json:"seed"`
	Kind string `json:"kind"` // PlanChain or PlanSubstream
	// LeadDim names the sharded dimension (chain plans), recorded so a
	// resumed coordination run can sanity-check the plan against the space.
	LeadDim string  `json:"lead_dim,omitempty"`
	Shards  []Shard `json:"shards"`
}

// substreamStride separates per-shard seeds. Any injective map from shard
// index to seed works — the checkpoint RNG feeds seeds through splitmix64,
// which decorrelates even adjacent integers — but a large odd stride also
// keeps the raw seed values visibly distinct in logs and state files.
const substreamStride = 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFF // 48-bit golden-ratio slice

// BuildPlan partitions a search over sp into at most n shards. Exhaustive
// searches shard by leading-dimension chain prefix; the resumable
// stochastic algorithms (random, guided, hillclimb, anneal, genetic) shard
// by RNG substream, which requires maxEvals > 0 so every shard's work is
// bounded — the total budget is split across shards with the remainder
// going to the first ones. Non-resumable algorithms (the portfolio) are
// rejected: a shard must be able to re-queue from a checkpoint.
func BuildPlan(sp *mapspace.Space, algo string, seed int64, n int, maxEvals int64) (*Plan, error) {
	if n < 1 {
		n = 1
	}
	if algo == "" {
		algo = "random"
	}
	if !slices.Contains(search.ResumableAlgorithms, algo) {
		return nil, fmt.Errorf("dist: algorithm %q is not resumable (want one of %s)",
			algo, strings.Join(search.ResumableAlgorithms, "|"))
	}

	p := &Plan{Algo: algo, Seed: seed}
	if algo == "exhaustive" {
		p.Kind = PlanChain
		p.LeadDim = sp.LeadingDim()
		for i, r := range sp.ShardLeading(n) {
			p.Shards = append(p.Shards, Shard{Index: i, Chain: r, Seed: seed})
		}
		return p, nil
	}

	if maxEvals <= 0 {
		return nil, fmt.Errorf("dist: a %s plan needs max_evaluations > 0 to bound each shard", algo)
	}
	if int64(n) > maxEvals {
		n = int(maxEvals)
	}
	p.Kind = PlanSubstream
	for i := 0; i < n; i++ {
		budget := maxEvals / int64(n)
		if int64(i) < maxEvals%int64(n) {
			budget++
		}
		p.Shards = append(p.Shards, Shard{
			Index:          i,
			Seed:           seed + int64(i)*substreamStride,
			MaxEvaluations: budget,
		})
	}
	return p, nil
}

// Validate cross-checks a (possibly deserialized) plan against the space it
// is about to run over: chain ranges must partition the leading dimension's
// chains and shard indices must be dense. Resume paths call it before
// reusing a stored plan.
func (p *Plan) Validate(sp *mapspace.Space) error {
	if len(p.Shards) == 0 {
		return fmt.Errorf("dist: plan has no shards")
	}
	for i, sh := range p.Shards {
		if sh.Index != i {
			return fmt.Errorf("dist: shard %d has index %d", i, sh.Index)
		}
	}
	switch p.Kind {
	case PlanChain:
		if p.LeadDim != sp.LeadingDim() {
			return fmt.Errorf("dist: plan shards dimension %q, space leads with %q", p.LeadDim, sp.LeadingDim())
		}
		total := int(sp.ChainCount(sp.LeadingDim()))
		lo := 0
		for _, sh := range p.Shards {
			if sh.Chain.Lo != lo || sh.Chain.Empty() {
				return fmt.Errorf("dist: shard %d chain range [%d, %d) does not continue partition at %d",
					sh.Index, sh.Chain.Lo, sh.Chain.Hi, lo)
			}
			lo = sh.Chain.Hi
		}
		if lo != total {
			return fmt.Errorf("dist: plan covers %d leading chains, space has %d", lo, total)
		}
	case PlanSubstream:
		for _, sh := range p.Shards {
			if sh.MaxEvaluations <= 0 {
				return fmt.Errorf("dist: substream shard %d has no evaluation budget", sh.Index)
			}
		}
	default:
		return fmt.Errorf("dist: unknown plan kind %q", p.Kind)
	}
	return nil
}
