GO ?= go

.PHONY: all build test race race-obs race-dist race-search bench bench-all bench-gate fmt vet lint fuzz-smoke docs-check check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and searchers are the concurrency-heavy packages; the full
# tree under -race is the release gate.
race:
	$(GO) test -race ./...

# Fast race signal on the observability layer and the server that exercises
# it concurrently (atomic histograms, span recorder, job gauges); CI runs
# this as a dedicated early step.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/server/...

# Distributed-determinism gate: the multi-worker integration tests (3-worker
# fleet vs single-node reference, deterministic mid-shard worker kill,
# kill-then-resume from a persisted plan state, long-poll reaction, workers
# without long-poll, no request left in flight) under the race detector,
# three times over: the fleet runs one goroutine per worker, so its faults
# depend on scheduling.
race-dist:
	$(GO) test -race -count=3 ./internal/dist/...

# Batch-evaluation gate: the engine's reusable batch (persistent worker
# scratches, shared result storage), the in-place exhaustive scan, the
# random and genetic searchers on the same batch, the annealer and the
# portfolio, the kill-and-resume and cancellation tests, and the samplers
# and cache keys (the compiled sampling table one Space shares across
# goroutines, the per-worker cache-key buffers, the draw and cache goldens)
# under the race detector three times over. The selection keeps it well
# under a minute; the whole search package takes far longer under -race.
RACE_SEARCH = ^Test(EvaluateBatch|Batch|Exhaustive|ShardedExhaustive|Random|Resumable|KillAndResume|CancelMid|Sampler|CacheKey|Anneal|Genetic|Portfolio)
race-search:
	$(GO) test -race -count=3 -run '$(RACE_SEARCH)' ./internal/engine/... ./internal/mapspace/... ./internal/search/...

# Evaluation-kernel microbenchmarks (compiled plan vs legacy, engine cache,
# sampler pipeline, delta-evaluation neighbor steps, cost attribution,
# guided-mapper convergence and the in-place exhaustive scan), persisted as
# BENCH_eval.json and appended as a dated record to BENCH_history.jsonl to
# track the perf trajectory across PRs. `bench-all` runs the full suite
# once.
BENCH_PATTERN = BenchmarkEvaluate|BenchmarkEngine|BenchmarkSample|BenchmarkNeighbor|BenchmarkAttribute|BenchmarkGuidedConverge|BenchmarkFused|BenchmarkExhaustiveScan
bench:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 2s . \
		| $(GO) run ./tools/benchjson -o BENCH_eval.json -history BENCH_history.jsonl

# CI perf gate: rerun the microbenchmarks three times against the committed
# snapshot and fail on a >20% regression of the gated kernels' best ns/op,
# any allocation in any run where the snapshot was allocation-free (the
# hot-path evaluate/sample/attribute loops and the fused producer half), or
# a >20% growth in the guided mapper's evals-to-convergence. benchjson folds
# the three runs (fastest time, highest allocations and metrics). Does not
# rewrite the committed snapshot or history.
BENCH_GATE = BenchmarkEvaluateCompiled,BenchmarkEvaluateConv,BenchmarkSampleEvaluatePipeline,BenchmarkSampleRubyS,BenchmarkEngineCachedSearch,BenchmarkAttribute,BenchmarkFusedEvaluateProducer,BenchmarkExhaustiveScan,BenchmarkGuidedConverge:convergence_evals
bench-gate:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 2s -count 3 . \
		| $(GO) run ./tools/benchjson -o '' -baseline BENCH_eval.json -gate '$(BENCH_GATE)'

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (determinism, hot-path allocation
# freedom, context discipline, atomic counter access). See tools/README.md.
lint:
	$(GO) run ./tools/rubylint ./...

# Short fuzz pass over every fuzz target; CI runs this as a smoke test.
# Override FUZZTIME for longer local sessions.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFactorChains -fuzztime $(FUZZTIME) ./internal/factor
	$(GO) test -run xxx -fuzz FuzzCheckpointRoundTrip -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzConfigParse -fuzztime $(FUZZTIME) ./internal/config
	$(GO) test -run xxx -fuzz FuzzProblemSpec -fuzztime $(FUZZTIME) ./internal/config
	$(GO) test -run xxx -fuzz FuzzMoveDelta -fuzztime $(FUZZTIME) ./internal/nest
	$(GO) test -run xxx -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME) ./internal/analysis/lint
	$(GO) test -run xxx -fuzz FuzzNetworkEdges -fuzztime $(FUZZTIME) ./internal/workload

# Documentation hygiene: every relative markdown link must resolve, and the
# source must be gofmt-clean and vet-clean (doc drift usually rides along
# with code drift).
docs-check: fmt vet
	$(GO) run ./tools/linkcheck

check: fmt vet build lint docs-check test race-dist race-search race
