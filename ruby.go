// Package ruby is a from-scratch reproduction of "Ruby: Improving Hardware
// Efficiency for Tensor Algebra Accelerators Through Imperfect Factorization"
// (ISPASS 2022): a Timeloop-style mapping-exploration stack for tensor
// accelerators whose mapspaces admit imperfect (remainder-bearing)
// factorization.
//
// The package is a facade over the internal packages; typical use is
//
//	w := ruby.MustConv2D(ruby.Conv2DParams{N: 1, M: 64, C: 64, P: 56, Q: 56, R: 3, S: 3})
//	a := ruby.EyerissLike(14, 12, 128)
//	ev := ruby.MustEvaluator(w, a)
//	sp := ruby.NewSpace(w, a, ruby.RubyS, ruby.EyerissRowStationary(w))
//	res := ruby.Search(ctx, sp, ruby.NewEngine(ev), ruby.SearchOptions{Seed: 1})
//	fmt.Println(res.BestCost.EDP, res.Best.Render(w, a))
//
// Every search entry point is context-first: pass context.Background() when
// cancellation is not needed. The engine argument configures the evaluation
// pipeline (cache, metrics, parallelism); NewEngine gives a transparent
// pass-through.
//
// Mapspace kinds: PFM (perfect factorization, the Timeloop baseline), Ruby
// (imperfect everywhere), RubyS (imperfect only at spatial levels — the
// paper's recommended variant), and RubyT (imperfect only at temporal
// levels). Experiment runners regenerating every table and figure of the
// paper live behind RunExperiment.
package ruby

import (
	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/config"
	"ruby/internal/dist"
	"ruby/internal/engine"
	"ruby/internal/exp"
	"ruby/internal/heuristic"
	"ruby/internal/library"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/sim"
	"ruby/internal/stats"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// Workload modeling.
type (
	// Workload is a tensor operation: an iteration space plus operand
	// tensors with projections.
	Workload = workload.Workload
	// Conv2DParams specifies a convolution layer in the paper's 7-loop form.
	Conv2DParams = workload.Conv2DParams
	// Tensor is one operand of a workload.
	Tensor = workload.Tensor
	// Dim is one loop of the iteration space.
	Dim = workload.Dim
	// Role classifies operands (Input, Weight, Output).
	Role = workload.Role
)

// Operand roles.
const (
	Input  = workload.Input
	Weight = workload.Weight
	Output = workload.Output
)

// Workload builders.
var (
	Conv2D       = workload.Conv2D
	MustConv2D   = workload.MustConv2D
	Matmul       = workload.Matmul
	MustMatmul   = workload.MustMatmul
	Dense        = workload.Dense
	Vector1D     = workload.Vector1D
	MustVector1D = workload.MustVector1D
	// Conv2DFromInput infers output dimensions from input geometry,
	// filter, stride and padding.
	Conv2DFromInput = workload.Conv2DFromInput
	// ParseEinsum builds a workload from an extended-Einsum expression
	// (enables depthwise convolutions and other exotic projections).
	ParseEinsum     = workload.ParseEinsum
	MustParseEinsum = workload.MustParseEinsum
)

// Architecture modeling.
type (
	// Arch is an accelerator description: DRAM, on-chip levels, fanouts.
	Arch = arch.Arch
	// Level is one storage level of an Arch.
	Level = arch.Level
	// Network is the spatial interconnect below a level.
	Network = arch.Network
)

// Architecture presets from the paper.
var (
	// EyerissLike builds the baseline: EyerissLike(14, 12, 128).
	EyerissLike = arch.EyerissLike
	// SimbaLike builds the Simba-like PE cluster: SimbaLike(15, 4, 4).
	SimbaLike = arch.SimbaLike
	// ToyLinear builds the Section III linear-array toy architecture.
	ToyLinear = arch.ToyLinear
	// ToyGLB builds the Section II-D illustration architecture.
	ToyGLB = arch.ToyGLB
	// TPULike builds a TPU-v1-style systolic extension preset.
	TPULike = arch.TPULike
	// EyerissV2Like builds the hierarchical four-level extension preset.
	EyerissV2Like = arch.EyerissV2Like
)

// Mappings and cost modeling.
type (
	// Mapping is one allocation of a workload onto an architecture.
	Mapping = mapping.Mapping
	// Cost is the evaluation result of a mapping (validity, cycles, energy,
	// EDP, per-level access counts).
	Cost = nest.Cost
	// Evaluator is the analytical loop-nest cost model.
	Evaluator = nest.Evaluator
)

var (
	// NewEvaluator builds a cost model for one (workload, architecture)
	// pair.
	NewEvaluator = nest.NewEvaluator
	// MustEvaluator is NewEvaluator, panicking on error.
	MustEvaluator = nest.MustEvaluator
	// UniformMapping places the whole iteration space at one level's
	// temporal loops — the canonical starting mapping.
	UniformMapping = mapping.Uniform
	// NewSimulator builds the execution-driven reference simulator that
	// validates the analytical model on small workloads.
	NewSimulator = sim.New
)

// Simulation.
type (
	// Simulator literally executes a mapping's loop nest (small workloads
	// only), counting cycles and tile-fill events.
	Simulator = sim.Simulator
	// SimOptions bounds a simulation.
	SimOptions = sim.Options
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// LinkStats is the model's per-tensor inter-level transfer record.
	LinkStats = nest.LinkStats
)

// Mapspaces.
type (
	// Space is a mapspace: the candidate mappings of a workload on an
	// architecture under one factorization discipline.
	Space = mapspace.Space
	// SpaceKind selects the factorization discipline.
	SpaceKind = mapspace.Kind
	// Constraints restricts a mapspace (dataflow-style spatial dimension
	// allowlists, fixed loop orders).
	Constraints = mapspace.Constraints
)

// Mapspace kinds.
const (
	PFM   = mapspace.PFM
	Ruby  = mapspace.Ruby
	RubyS = mapspace.RubyS
	RubyT = mapspace.RubyT
)

var (
	// NewSpace builds a mapspace.
	NewSpace = mapspace.New
	// EyerissRowStationary returns the row-stationary constraint preset of
	// the Eyeriss-like baseline.
	EyerissRowStationary = mapspace.EyerissRowStationary
	// SimbaDataflow returns the Simba-like constraint preset.
	SimbaDataflow = mapspace.SimbaDataflow
	// SystolicDataflow returns the TPU-like constraint preset.
	SystolicDataflow = mapspace.SystolicDataflow
	// PadWorkload pads dimensions to array-size multiples (the Section
	// III-B baseline strategy).
	PadWorkload = mapspace.PadWorkload
)

// Search.
type (
	// SearchOptions configures every searcher.
	SearchOptions = search.Options
	// SearchResult is a search outcome (best mapping, cost, trace).
	SearchResult = search.Result
	// Objective selects the minimized metric.
	Objective = search.Objective
)

// Evaluation engine: the pipeline behind every searcher, adding context
// cancellation, a memo cache keyed by canonical mapping signatures, metrics
// hooks, and parallel batch evaluation.
type (
	// Engine is the evaluation pipeline around an Evaluator.
	Engine = engine.Engine
	// EngineConfig configures an Engine (cache size, metrics hook, workers).
	EngineConfig = engine.Config
	// EngineMetrics receives pipeline events (evaluations, improvements,
	// search completions).
	EngineMetrics = engine.Metrics
	// EngineCounters is the default atomic Metrics implementation with
	// JSON/expvar export.
	EngineCounters = engine.Counters
	// EngineSnapshot is a point-in-time copy of EngineCounters.
	EngineSnapshot = engine.Snapshot
)

var (
	// NewEngine wraps an Evaluator in a pass-through pipeline (no cache,
	// no metrics); use EngineConfig.New for a configured one.
	NewEngine = engine.New
)

// Observability: opt-in tracing and metrics (see docs/API.md).
type (
	// TraceRecorder collects hierarchical spans (suite -> layer -> search ->
	// eval-batch) into a fixed-capacity ring buffer and writes Chrome-trace
	// JSON.
	TraceRecorder = obs.Recorder
	// Instruments bundles the pipeline counters with latency/EDP histograms
	// and slow-event logging; it implements EngineMetrics.
	Instruments = engine.Instruments
	// MetricsRegistry renders registered metrics in Prometheus text format.
	MetricsRegistry = obs.Registry
)

var (
	// NewTraceRecorder builds a span recorder (capacity <= 0 selects the
	// default of 4096 spans).
	NewTraceRecorder = obs.NewRecorder
	// WithTraceRecorder attaches a recorder to a context; searches run under
	// that context record spans into it.
	WithTraceRecorder = obs.WithRecorder
	// NewInstruments builds the histogram-backed Metrics implementation.
	NewInstruments = engine.NewInstruments
	// NewMetricsRegistry builds an empty metric registry; register an
	// Instruments via its Register method.
	NewMetricsRegistry = obs.NewRegistry
)

// Search objectives.
const (
	// ObjectiveEDP minimizes energy x delay (the paper's default).
	ObjectiveEDP = search.ObjectiveEDP
	// ObjectiveEnergy minimizes total energy.
	ObjectiveEnergy = search.ObjectiveEnergy
	// ObjectiveDelay minimizes cycles (the paper's Section IV-D variant).
	ObjectiveDelay = search.ObjectiveDelay
)

var (
	// Search runs Timeloop-style parallel random-sampling search through the
	// evaluation pipeline, honoring ctx cancellation.
	Search = search.Random
	// SearchExhaustive evaluates an entire (small) mapspace with parallel
	// batch evaluation and a configurable objective.
	SearchExhaustive = search.Exhaustive
	// SearchHillClimb runs the greedy local-search extension (warm-up and
	// patience come from SearchOptions.Warmup/Patience).
	SearchHillClimb = search.HillClimb
	// SearchGuided runs the model-guided greedy mapper: cost-attribution
	// ranked descent that converges in thousands of evaluations (see
	// docs/MODEL.md).
	SearchGuided = search.Guided
	// SearchRun dispatches to a searcher by algorithm name ("random",
	// "guided", "hillclimb", "anneal", "genetic", "portfolio",
	// "exhaustive"; "" means random).
	SearchRun = search.Run
	// SearchGenetic runs the GAMMA-style genetic-algorithm extension
	// through the engine's batch evaluation.
	SearchGenetic = search.Genetic
	// ConstructMapping builds one mapping deterministically with the
	// COSA-style constructive heuristic (no search).
	ConstructMapping = heuristic.Construct
	// SearchAnneal runs the simulated-annealing extension (the warm-up
	// comes from SearchOptions.Warmup).
	SearchAnneal = search.Anneal
	// SearchPortfolio splits a budget across all searchers and returns the
	// overall best.
	SearchPortfolio = search.Portfolio
)

// Checkpointing: crash-safe search orchestration (see docs/ARCHITECTURE.md).
// The resumable searchers expose Step/Snapshot/Restore; RunCheckpointed
// drives one with periodic snapshots, and a killed run resumed from its file
// finishes with bit-identical results.
type (
	// Searcher is a stepwise search whose full state snapshots and restores.
	Searcher = search.Searcher
	// CheckpointConfig sets the snapshot path and interval for
	// RunCheckpointed.
	CheckpointConfig = search.CheckpointConfig
	// SearchState is the serialized state of one resumable search.
	SearchState = checkpoint.SearchState
	// CheckpointRNG is the serializable random generator resumable searches
	// draw from (xoshiro256**, state round-trips through JSON exactly).
	CheckpointRNG = checkpoint.RNG
	// SuiteCheckpoint records completed per-layer suite searches, keyed by
	// their full search configuration; resumed suite runs skip them.
	SuiteCheckpoint = sweep.SuiteCheckpoint
)

var (
	// NewRandomSearcher builds the resumable random-sampling searcher.
	NewRandomSearcher = search.NewRandom
	// NewHillClimbSearcher builds the resumable hill-climbing searcher.
	NewHillClimbSearcher = search.NewHillClimb
	// NewAnnealSearcher builds the resumable simulated-annealing searcher.
	NewAnnealSearcher = search.NewAnneal
	// NewGeneticSearcher builds the resumable genetic-algorithm searcher.
	NewGeneticSearcher = search.NewGenetic
	// NewGuidedSearcher builds the resumable model-guided searcher.
	NewGuidedSearcher = search.NewGuided
	// NewExhaustiveSearcher builds the resumable exhaustive scanner.
	NewExhaustiveSearcher = search.NewExhaustive
	// RunCheckpointed drives a Searcher to completion with periodic
	// crash-safe snapshots and a final snapshot on interruption.
	RunCheckpointed = search.RunCheckpointed
	// RestoreSearch loads a snapshot file into a fresh Searcher; a missing
	// file is a fresh start, not an error.
	RestoreSearch = search.RestoreFromFile
	// OpenSuiteCheckpoint opens (or creates) a suite checkpoint file; pass
	// it via SuiteOptions.Checkpoint.
	OpenSuiteCheckpoint = sweep.OpenSuiteCheckpoint
	// SaveCheckpoint / LoadCheckpoint are the underlying atomic versioned
	// snapshot codec (temp file + rename; schema-, version- and
	// kind-checked).
	SaveCheckpoint = checkpoint.Save
	LoadCheckpoint = checkpoint.Load
)

// Distributed search: one search partitioned into disjoint shards and
// coordinated across a fleet of rubyserve workers (cmd/rubycoord drives
// this; see docs/DISTRIBUTED.md). The merged result is bit-identical to a
// single-node execution of the same plan — RunPlanLocal is that reference —
// regardless of worker count, scheduling or worker loss.
type (
	// DistSpec is the problem and base search configuration shipped to
	// every worker (raw /v1 JSON fragments).
	DistSpec = dist.JobSpec
	// ShardPlan is a deterministic partition of one search into shards.
	ShardPlan = dist.Plan
	// Shard is one unit of distributable work within a plan.
	Shard = dist.Shard
	// ChainRange is a half-open range of leading-dimension factor chains
	// (how exhaustive plans restrict each shard's enumeration).
	ChainRange = mapspace.ChainRange
	// Coordinator tracks shard leases, checkpoints and results, and merges
	// per-shard incumbents in shard-index order.
	Coordinator = dist.Coordinator
	// Fleet drives a Coordinator against rubyserve workers over /v1/jobs.
	Fleet = dist.Fleet
	// ShardOutcome is one shard's final report (incumbent plus counters).
	ShardOutcome = dist.ShardResult
	// DistMerged is the fleet-level merged outcome.
	DistMerged = dist.Merged
)

var (
	// BuildShardPlan partitions a search over a space into shards: by
	// leading factor-chain prefix for exhaustive scans, by RNG substream
	// (with a split evaluation budget) for the stochastic searchers.
	BuildShardPlan = dist.BuildPlan
	// NewCoordinator builds a coordinator over a plan.
	NewCoordinator = dist.NewCoordinator
	// RestoreCoordinator rebuilds a coordinator from persisted plan state;
	// finished shards keep their results, everything else re-queues.
	RestoreCoordinator = dist.RestoreCoordinator
	// LoadCoordinatorState reads a persisted coordination state file
	// (checkpoint kind "shards").
	LoadCoordinatorState = dist.LoadState
	// RunPlanLocal executes a plan's shards sequentially in-process — the
	// single-node reference a distributed run must reproduce bit-for-bit.
	RunPlanLocal = dist.RunLocal
)

// Configuration files (JSON; see configs/ for examples).
var (
	// LoadArch reads an architecture description from a JSON file.
	LoadArch = config.LoadArch
	// ParseArch builds an architecture from JSON bytes.
	ParseArch = config.ParseArch
	// ParseWorkload builds a workload from JSON bytes.
	ParseWorkload = config.ParseWorkload
	// LoadWorkload reads a workload from a JSON file.
	LoadWorkload = config.LoadWorkload
	// LoadConstraints reads mapspace constraints from a JSON file.
	LoadConstraints = config.LoadConstraints
	// DecodeMapping parses a mapping saved by Mapping.Encode and validates
	// it against a workload and slot list.
	DecodeMapping = mapping.Decode
	// ArchSlots derives the tiling slot list of an architecture.
	ArchSlots = mapping.Slots
	// OpenLibrary opens a file-backed cache of best-known mappings.
	OpenLibrary = library.Open
	// LibraryKey derives the cache key for a mapping problem.
	LibraryKey = library.Key
)

// MappingLibrary is the file-backed cache of best-known mappings.
type MappingLibrary = library.Store

// Benchmark suites and network graphs.
type (
	// SuiteLayer is one benchmark layer with metadata.
	SuiteLayer = workloads.Layer
	// WorkloadNetwork is a layer graph: workloads as nodes,
	// producer->consumer tensor edges with dimension correspondences
	// (arch.Network, the spatial interconnect, already owns the bare name).
	WorkloadNetwork = workload.Network
	// NetworkNode is one layer of a Network.
	NetworkNode = workload.Node
	// NetworkEdge is one producer->consumer correspondence of a Network.
	NetworkEdge = workload.Edge
)

var (
	// ResNet50 returns the unique ResNet-50 layers with repeat counts.
	ResNet50 = workloads.ResNet50
	// ResNet50Network returns ResNet-50 as a network graph whose bottleneck
	// chains carry fusable producer->consumer edges.
	ResNet50Network = workloads.ResNet50Network
	// DeepBench returns the DeepBench selection.
	DeepBench = workloads.DeepBench
	// DeepBenchStacks returns the DeepBench back-to-back stacks (GEMM chain
	// and 3x3 vision stack) as a network graph.
	DeepBenchStacks = workloads.DeepBenchStacks
	// AlexNetConv2 returns layer 2 of AlexNet (the Fig. 9 study).
	AlexNetConv2 = workloads.AlexNetConv2
	// VGG16 returns the VGG-16 extension suite (a PFM-friendly control).
	VGG16 = workloads.VGG16
	// TransformerEncoder returns one encoder layer's GEMMs
	// (TransformerEncoder(384, 768, 12) for BERT-base).
	TransformerEncoder = workloads.TransformerEncoder
	// MobileNetV2 returns the depthwise-heavy extension suite.
	MobileNetV2 = workloads.MobileNetV2
	// Suites returns every built-in workload suite by name.
	Suites = workloads.Suites
	// Networks returns every built-in suite as a network graph by name.
	Networks = workloads.Networks
	// NewNetwork builds and validates a layer graph.
	NewNetwork = workload.NewNetwork
	// NetworkFromLayers wraps a layer list in an edge-free Network.
	NetworkFromLayers = workloads.NetworkFromLayers
	// LayersOf flattens a Network back into a suite layer list.
	LayersOf = workloads.LayersOf
)

// Design-space exploration.
type (
	// Strategy is one mapping approach in the DSE sweeps (mapspace kind,
	// optionally with the padding baseline).
	Strategy = sweep.Strategy
	// ArrayConfig is one PE-array size in a sweep.
	ArrayConfig = sweep.ArrayConfig
	// DesignPoint is one swept configuration's per-strategy EDP.
	DesignPoint = sweep.DesignPoint
	// SuiteResult aggregates a suite search on one architecture.
	SuiteResult = sweep.SuiteResult
	// NetworkResult is a network search's outcome: per-layer baseline,
	// selected fused segments, and fused network totals.
	NetworkResult = sweep.NetworkResult
	// SegmentResult is one fused producer->consumer segment.
	SegmentResult = sweep.SegmentResult
	// FusedCost is the fused evaluation of one producer/consumer pair.
	FusedCost = nest.FusedCost
	// FusedEvaluator evaluates fused mappings of one network edge.
	FusedEvaluator = nest.FusedEvaluator
	// ParetoPoint is one point of an area-EDP frontier.
	ParetoPoint = stats.Point
)

// SuiteOptions bundles the knobs of a pipeline-driven suite run
// (search options, engine config, library, layer-level parallelism).
type SuiteOptions = sweep.SuiteOptions

var (
	// SweepStrategies returns the paper's three compared strategies.
	SweepStrategies = sweep.Strategies
	// EyerissConfigs returns the Section IV-E array sweep range.
	EyerissConfigs = sweep.EyerissConfigs
	// Explore sweeps array configurations over a suite (Figs. 13-14) with
	// cancellation and pipeline options.
	Explore = sweep.Explore
	// Frontier extracts one strategy's area-EDP Pareto frontier.
	Frontier = sweep.Frontier
	// RunSuite searches a network's nodes per-layer on one architecture with
	// parallel layer searches; a mapping library rides in
	// SuiteOptions.Library.
	RunSuite = sweep.RunSuite
	// RunSuiteLayers is the []Layer suite entry point RunSuite wraps.
	RunSuiteLayers = sweep.RunSuiteLayers
	// SearchNetwork searches a network with optional fusion across its
	// edges, reporting fused segments and network totals.
	SearchNetwork = sweep.SearchNetwork
	// NewFusedEvaluator builds a fused evaluator for one network edge.
	NewFusedEvaluator = nest.NewFusedEvaluator
	// SearchLayer searches one layer under one strategy through the
	// evaluation pipeline.
	SearchLayer = sweep.SearchLayer
	// ParetoFrontier computes a generic minimize-both frontier.
	ParetoFrontier = stats.ParetoFrontier
)

// Experiments.
type (
	// ExperimentConfig tunes experiment fidelity (budgets, averaging runs).
	ExperimentConfig = exp.Config
)

var (
	// RunExperiment regenerates one paper table/figure by identifier
	// ("fig7a".."fig7d", "table1", "fig8".."fig12", "fig13a/b", "fig14a/b"),
	// honoring ctx cancellation.
	RunExperiment = exp.Run
	// ExperimentNames lists the accepted identifiers.
	ExperimentNames = exp.Names
	// QuickConfig is a test/benchmark-scale experiment configuration.
	QuickConfig = exp.Quick
	// FullConfig is the paper-fidelity experiment configuration.
	FullConfig = exp.Full
)
