// Command rubysuite searches a whole workload suite on one architecture and
// prints the per-layer results and network totals, optionally for several
// mapspaces side by side.
//
// Usage:
//
//	rubysuite -suite resnet50
//	rubysuite -suite mobilenetv2 -mapspaces pfm,ruby-s -evals 20000
//	rubysuite -suite deepbench -arch eyeriss:16x16:128
//	rubysuite -suite resnet50 -fuse
//	rubysuite -list
//
// Suites resolve to network graphs (workloads.Networks) when one exists, so
// -fuse can search fused producer→consumer segments across the network's
// edges; suites without a graph run per-layer over an edge-free network.
//
// With -checkpoint DIR every finished layer is recorded on disk, keyed by
// its full search configuration; re-running the same command (after a crash,
// SIGINT, or timeout) skips completed layers and reproduces their results
// bit for bit. Pass -resume for clarity — any run with -checkpoint resumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"ruby/internal/arch"
	"ruby/internal/config"
	"ruby/internal/engine"
	"ruby/internal/library"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/stats"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

func main() {
	var (
		suite    = flag.String("suite", "resnet50", "workload suite (see -list)")
		archStr  = flag.String("arch", "eyeriss:14x12:128", "eyeriss:COLSxROWS:GLBKiB | simba:PES:UNITSxWIDTH | toy:PES:SPADWORDS")
		archFile = flag.String("arch-file", "", "JSON architecture file (overrides -arch)")
		kinds    = flag.String("mapspaces", "pfm,ruby-s", "comma-separated mapspace kinds to compare")
		algo     = flag.String("search", "", "search algorithm per layer: random | guided | hillclimb | anneal | genetic | portfolio | exhaustive (default random)")
		evals    = flag.Int64("evals", 20000, "max sampled mappings per layer per mapspace")
		threads  = flag.Int("threads", 0, "search threads")
		seed     = flag.Int64("seed", 1, "RNG seed")
		libDir   = flag.String("library", "", "mapping-library directory: reuse cached best mappings across runs")
		cpDir    = flag.String("checkpoint", "", "directory for per-layer suite checkpoints; interrupted runs resume here, skipping completed layers")
		resume   = flag.Bool("resume", false, "alias for clarity: resuming is automatic whenever -checkpoint is set")
		timeout  = flag.Duration("timeout", 0, "wall-time budget for the whole run; on expiry the run aborts (0 = none)")
		parallel = flag.Int("parallel", 0, "layers and fused segments searched concurrently (0 = auto, 1 = serial)")
		cacheN   = flag.Int("cache", 0, "per-layer evaluation memo-cache entries (0 = disabled)")
		fuse     = flag.Bool("fuse", false, "fusion-aware network search: keep fused producer->consumer segments that strictly lower network EDP")
		list     = flag.Bool("list", false, "list suites and exit")
	)
	flag.Parse()

	if *list {
		nets := workloads.Networks()
		var names []string
		for name, layers := range workloads.Suites() {
			edges := 0
			if net, ok := nets[name]; ok {
				edges = len(net.Edges)
			}
			names = append(names, fmt.Sprintf("%-17s %2d unique layers, %2d fusable edges, %d MACs",
				name, len(layers), edges, workloads.TotalMACs(layers)))
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	net, err := workloads.NetworkNamed(*suite)
	if err != nil {
		fatal(fmt.Errorf("%w (try -list)", err))
	}
	layers := workloads.LayersOf(net)
	if *fuse && len(net.Edges) == 0 {
		fmt.Fprintf(os.Stderr, "rubysuite: suite %q has no fusable edges; -fuse will match the per-layer baseline\n", *suite)
	}

	// -arch-file arrays get the row-stationary dataflow.
	dataflow := arch.DataflowRowStationary
	var a *arch.Arch
	if *archFile != "" {
		a, err = config.LoadArch(*archFile)
	} else {
		a, dataflow, err = arch.ParsePreset(*archStr)
	}
	if err != nil {
		fatal(err)
	}

	consFn := mapspace.PresetConstraints(dataflow)
	if *suite == "mobilenetv2" {
		// Depthwise layers need the channel dimension on both axes.
		consFn = func(w *workload.Workload) mapspace.Constraints {
			return mapspace.Constraints{
				SpatialX: []string{"Q", "M", "N"},
				SpatialY: []string{"R", "S", "C", "M", "K"},
			}
		}
	}

	var lib *library.Store
	if *libDir != "" {
		var err error
		lib, err = library.Open(*libDir)
		if err != nil {
			fatal(err)
		}
	}

	if *resume && *cpDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint DIR"))
	}
	var cp *sweep.SuiteCheckpoint
	if *cpDir != "" {
		if err := os.MkdirAll(*cpDir, 0o755); err != nil {
			fatal(err)
		}
		cp, err = sweep.OpenSuiteCheckpoint(filepath.Join(*cpDir, "rubysuite.suite.json"))
		if err != nil {
			fatal(err)
		}
		if n := cp.Len(); n > 0 {
			fmt.Printf("checkpoint %s holds %d completed layer searches; matching layers are skipped\n\n", cp.Path(), n)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGINT/SIGTERM abort between layers; completed layers are already in
	// the checkpoint, so the same command picks up where this run stopped.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	so := sweep.SuiteOptions{
		Search:     search.Options{Algo: *algo, Seed: *seed, Threads: *threads, MaxEvaluations: *evals},
		Engine:     engine.Config{CacheEntries: *cacheN},
		Library:    lib,
		Checkpoint: cp,
		Parallel:   *parallel,
	}
	var results []*sweep.SuiteResult
	var fused []*sweep.NetworkResult
	var names []string
	for _, ks := range strings.Split(*kinds, ",") {
		kind, err := mapspace.ParseKind(ks)
		if err != nil {
			fatal(err)
		}
		st := sweep.Strategy{Name: kind.String(), Kind: kind}
		var sr *sweep.SuiteResult
		if *fuse {
			nr, nerr := sweep.SearchNetwork(ctx, net, a, st, consFn, so, true)
			err = nerr
			if nr != nil {
				sr = nr.Baseline
				fused = append(fused, nr)
			}
		} else {
			sr, err = sweep.RunSuite(ctx, net, a, st, consFn, so)
		}
		if err != nil {
			if ctx.Err() != nil && cp != nil {
				fmt.Fprintf(os.Stderr, "rubysuite: interrupted; %d layer searches checkpointed in %s — rerun the same command to continue\n",
					cp.Len(), cp.Path())
				os.Exit(1)
			}
			fatal(err)
		}
		results = append(results, sr)
		names = append(names, kind.String())
	}

	tb := &stats.Table{
		Title:   fmt.Sprintf("%s on %s (EDP per layer)", *suite, a.Name),
		Headers: append([]string{"layer", "repeat"}, names...),
	}
	if len(results) > 1 {
		tb.Headers = append(tb.Headers, "last/first")
	}
	for i := range layers {
		row := []any{layers[i].Name, layers[i].Repeat}
		for _, sr := range results {
			row = append(row, sr.Layers[i].Cost.EDP)
		}
		if len(results) > 1 {
			row = append(row, results[len(results)-1].Layers[i].Cost.EDP/results[0].Layers[i].Cost.EDP)
		}
		tb.AddRow(row...)
	}
	totals := []any{"TOTAL (network)", ""}
	for _, sr := range results {
		totals = append(totals, sr.EDP)
	}
	if len(results) > 1 {
		totals = append(totals, results[len(results)-1].EDP/results[0].EDP)
	}
	tb.AddRow(totals...)
	tb.Render(os.Stdout)

	if len(results) > 1 {
		fmt.Printf("\nnetwork EDP: %s improves on %s by %.1f%%\n",
			names[len(names)-1], names[0],
			100*stats.Improvement(results[0].EDP, results[len(results)-1].EDP))
	}

	for i, nr := range fused {
		fmt.Printf("\n%s fused segments (%d of %d edges kept):\n", names[i], len(nr.Segments), len(net.Edges))
		for _, sg := range nr.Segments {
			fmt.Printf("  %s -> %s  x%d  elides %.0f DRAM words, saves %.3g pJ\n",
				sg.From, sg.To, sg.Repeat, sg.Fused.ElidedWords, sg.GainPJ())
		}
		fmt.Printf("  network EDP %.6g vs per-layer %.6g (%.1f%% better)\n",
			nr.EDP, nr.Baseline.EDP, 100*stats.Improvement(nr.Baseline.EDP, nr.EDP))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rubysuite: %v\n", err)
	os.Exit(1)
}
