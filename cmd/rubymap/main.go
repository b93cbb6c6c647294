// Command rubymap searches for the best mapping of one workload onto one
// architecture and prints the winning loop nest with its cost breakdown.
//
// Usage:
//
//	rubymap -workload res4x_branch2c -mapspace ruby-s
//	rubymap -conv n=1,m=96,c=48,p=27,q=27,r=5,s=5 -arch eyeriss:14x12:128
//	rubymap -matmul 5124x700x2048 -arch simba:15:4x4 -mapspace pfm
//	rubymap -network deepbench-stacks -evals 20000
//	rubymap -list
//
// -network switches to whole-graph mode: every node of the named network
// graph is searched per-layer, then fusable producer→consumer segments are
// searched across the graph's edges and kept when they strictly lower the
// network EDP (rubysuite -fuse runs the same search across mapspaces).
//
// Long searches are interruptible: with -checkpoint DIR the search state is
// snapshotted periodically and on SIGINT/SIGTERM, and -resume continues a
// killed run from its last snapshot with bit-identical final results (see
// docs/ARCHITECTURE.md).
//
// Observability: -trace FILE records the search's span tree (search ->
// eval-batch, checkpoint events) and writes Chrome-trace JSON loadable in
// chrome://tracing or Perfetto; -slow-eval/-slow-search emit structured
// warnings for outliers; -metrics prints the pipeline counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ruby/internal/arch"
	"ruby/internal/config"
	"ruby/internal/energy"
	"ruby/internal/engine"
	"ruby/internal/heuristic"
	"ruby/internal/library"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
	"ruby/internal/profile"
	"ruby/internal/search"
	"ruby/internal/sim"
	"ruby/internal/sweep"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

func main() {
	var (
		wlName     = flag.String("workload", "", "named layer from the built-in suites (see -list)")
		netName    = flag.String("network", "", "fusion-aware search over a named network graph (e.g. resnet50, deepbench-stacks) instead of one workload")
		convStr    = flag.String("conv", "", "ad-hoc convolution, e.g. n=1,m=64,c=64,p=56,q=56,r=3,s=3[,sh=1,sw=1]")
		mmStr      = flag.String("matmul", "", "ad-hoc GEMM MxNxK, e.g. 1024x16x512")
		wlFile     = flag.String("workload-file", "", "JSON workload file (see configs/)")
		archStr    = flag.String("arch", "eyeriss:14x12:128", "eyeriss:COLSxROWS:GLBKiB | simba:PES:UNITSxWIDTH | toy:PES:SPADWORDS")
		archFile   = flag.String("arch-file", "", "JSON architecture file (overrides -arch)")
		consFile   = flag.String("constraints-file", "", "JSON constraints file (overrides the arch preset)")
		kind       = flag.String("mapspace", "ruby-s", "pfm | ruby | ruby-s | ruby-t")
		searcher   = flag.String("search", "random", "random | guided | exhaustive | genetic | anneal | hillclimb | portfolio | heuristic (one-shot) | warm (heuristic + random)")
		objFlag    = flag.String("objective", "edp", "edp | energy | delay")
		evals      = flag.Int64("evals", 100000, "max sampled mappings (0 = rely on no-improve; also caps -search exhaustive)")
		cpDir      = flag.String("checkpoint", "", "directory for crash-safe search snapshots ("+checkpointable+"); SIGINT/SIGTERM write a final snapshot before exiting")
		resume     = flag.Bool("resume", false, "continue from the snapshot in -checkpoint (fresh start when none exists)")
		noImp      = flag.Int64("no-improve", 3000, "stop after this many consecutive non-improving valid mappings")
		threads    = flag.Int("threads", 0, "search threads (default: CPUs, max 24)")
		seed       = flag.Int64("seed", 1, "RNG seed")
		timeout    = flag.Duration("timeout", 0, "wall-time budget for the search; on expiry the best mapping so far is printed (0 = none)")
		cacheN     = flag.Int("cache", 0, "evaluation memo-cache entries (0 = disabled)")
		metrics    = flag.Bool("metrics", false, "print evaluation-pipeline counters after the search")
		tracePath  = flag.String("trace", "", "write a Chrome-trace JSON span dump of the search to this file")
		slowEval   = flag.Duration("slow-eval", 0, "log sampled evaluations slower than this (0 = off)")
		slowSearch = flag.Duration("slow-search", 0, "log searches slower than this (0 = off)")
		list       = flag.Bool("list", false, "list named workloads and exit")
		savePath   = flag.String("save", "", "write the best mapping as JSON to this path")
		libDir     = flag.String("library", "", "mapping-library directory: reuse cached best mappings, store new ones")
		loadPath   = flag.String("load", "", "evaluate a saved mapping instead of searching")
		verbose    = flag.Bool("v", false, "print per-tensor inter-level traffic")
		tree       = flag.Bool("tree", false, "print the factorization tree per tiled dimension (paper Figs. 4-6)")
		simulate   = flag.Bool("simulate", false, "cross-check the best mapping on the execution-driven simulator (small workloads)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		listWorkloads()
		return
	}

	stopProf, err0 := profile.Start(*cpuProf, *memProf)
	if err0 != nil {
		fatal(err0)
	}
	defer stopProf()

	if *netName != "" {
		runNetwork(*netName, *archStr, *archFile, *kind, *objFlag,
			*seed, *evals, *threads, *timeout)
		return
	}

	var w *workload.Workload
	var err error
	if *wlFile != "" {
		w, err = config.LoadWorkload(*wlFile)
	} else {
		w, err = resolveWorkload(*wlName, *convStr, *mmStr)
	}
	if err != nil {
		fatal(err)
	}
	a, dataflow, err := loadArch(*archStr, *archFile)
	if err != nil {
		fatal(err)
	}
	k, err := mapspace.ParseKind(*kind)
	if err != nil {
		fatal(err)
	}

	cons := mapspace.PresetConstraints(dataflow)(w)
	if *consFile != "" {
		cons, err = config.LoadConstraints(*consFile)
		if err != nil {
			fatal(err)
		}
	}

	ev, err := nest.NewEvaluator(w, a)
	if err != nil {
		fatal(err)
	}
	sp := mapspace.New(w, a, k, cons)

	var lib *library.Store
	var libKey string
	if *libDir != "" {
		lib, err = library.Open(*libDir)
		if err != nil {
			fatal(err)
		}
		libKey = library.Key(w, a, k, cons)
	}

	var res *search.Result
	if lib != nil {
		if m, ok := lib.Get(libKey, w, sp.Slots()); ok {
			if c := ev.Evaluate(m); c.Valid {
				fmt.Printf("library hit: %s\n\n", libKey[:12])
				res = &search.Result{Best: m, BestCost: c, Evaluated: 1, Valid: 1}
			}
		}
	}
	if res != nil {
		// Reusing the cached mapping; skip search.
	} else if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			fatal(err)
		}
		m, err := mapping.Decode(data, w, sp.Slots())
		if err != nil {
			fatal(fmt.Errorf("loading mapping: %w", err))
		}
		c := ev.Evaluate(m)
		if !c.Valid {
			fatal(fmt.Errorf("loaded mapping invalid: %s", c.Reason))
		}
		res = &search.Result{Best: m, BestCost: c, Evaluated: 1, Valid: 1}
	} else {
		obj, err := search.ParseObjective(*objFlag)
		if err != nil {
			fatal(err)
		}
		opt := search.Options{
			Seed: *seed, Threads: *threads,
			MaxEvaluations: *evals, ConsecutiveNoImprove: *noImp,
			Objective: obj,
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		// SIGINT/SIGTERM cancel the search; checkpointable searchers drain
		// their in-flight batch and write a final snapshot first.
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		var rec *obs.Recorder
		if *tracePath != "" {
			rec = obs.NewRecorder(0)
			ctx = obs.WithRecorder(ctx, rec)
		}
		ins := engine.NewInstruments()
		if *slowEval > 0 || *slowSearch > 0 {
			ins.Slow = &obs.SlowLog{EvalThreshold: *slowEval, SearchThreshold: *slowSearch}
		}
		eng := engine.Config{CacheEntries: *cacheN, Metrics: ins}.New(ev)
		if *cpDir != "" || *resume || *searcher == "exhaustive" {
			res, err = runCheckpointable(ctx, *searcher, sp, eng, ev, k, cons, opt, *evals, *cpDir, *resume)
			if err != nil {
				fatal(err)
			}
		} else {
			res = runOneShot(ctx, *searcher, sp, eng, ev, k, cons, opt)
		}
		if ctx.Err() != nil {
			if *timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
				fmt.Printf("search timed out after %s; reporting best mapping so far\n\n", *timeout)
			} else {
				fmt.Printf("search interrupted; reporting best mapping so far\n\n")
			}
		}
		if rec != nil {
			if err := writeTrace(*tracePath, rec); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (%d spans)\n\n", *tracePath, len(rec.Spans()))
		}
		if *metrics {
			s := ins.Counters.Snapshot()
			fmt.Printf("pipeline: %d evaluations (%.1f%% valid), %d cache hits (%.1f%%), %d improvements, %.2fs search time\n\n",
				s.Evaluations, 100*s.ValidRate, s.CacheHits, 100*s.CacheHitRate, s.Improvements, s.SearchSeconds)
		}
	}
	reportAndExit(res, w, a, k, sp, ev, lib, libKey,
		*savePath, *tree, *verbose, *simulate)
}

// runNetwork searches a named network graph end to end: a per-layer baseline
// over every node, then the fusion-aware segment search, reporting the fused
// segments kept and the network EDP against the per-layer baseline.
func runNetwork(name, archStr, archFile, kindStr, objFlag string,
	seed, evals int64, threads int, timeout time.Duration) {

	net, err := workloads.NetworkNamed(name)
	if err != nil {
		fatal(fmt.Errorf("%w (rubysuite -list names them)", err))
	}
	a, dataflow, err := loadArch(archStr, archFile)
	if err != nil {
		fatal(err)
	}
	k, err := mapspace.ParseKind(kindStr)
	if err != nil {
		fatal(err)
	}
	obj, err := search.ParseObjective(objFlag)
	if err != nil {
		fatal(err)
	}
	consFn := mapspace.PresetConstraints(dataflow)

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	st := sweep.Strategy{Name: k.String(), Kind: k}
	so := sweep.SuiteOptions{Search: search.Options{
		Seed: seed, Threads: threads, MaxEvaluations: evals, Objective: obj,
	}}
	nr, err := sweep.SearchNetwork(ctx, net, a, st, consFn, so, true)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("network:  %s (%d nodes, %d edges)\n", net.Name, len(net.Nodes), len(net.Edges))
	fmt.Printf("arch:     %s (%d lanes)\n", a.Name, a.TotalLanes())
	fmt.Printf("mapspace: %s\n\n", k)
	for _, lr := range nr.Baseline.Layers {
		fmt.Printf("  %-24s x%-3d EDP %.4g\n", lr.Layer.Name, lr.Layer.Repeat, lr.Cost.EDP)
	}
	fmt.Printf("\nfused segments (%d of %d edges kept):\n", len(nr.Segments), len(net.Edges))
	for _, sg := range nr.Segments {
		fmt.Printf("  %s -> %s  x%d  elides %.0f DRAM words, saves %.3g pJ\n",
			sg.From, sg.To, sg.Repeat, sg.Fused.ElidedWords, sg.GainPJ())
	}
	fmt.Printf("\nper-layer EDP: %.6g\nfused EDP:     %.6g (%.1f%% better)\n",
		nr.Baseline.EDP, nr.EDP, 100*(nr.Baseline.EDP-nr.EDP)/nr.Baseline.EDP)
}

// runOneShot runs a search without snapshots: the constructive heuristic
// for "heuristic", random search from its mapping for "warm", and
// search.Run for every search.Algorithms name, so opt's budget and
// termination criterion apply to all of them.
func runOneShot(ctx context.Context, searcher string, sp *mapspace.Space, eng *engine.Engine,
	ev *nest.Evaluator, k mapspace.Kind, cons mapspace.Constraints, opt search.Options) *search.Result {

	switch searcher {
	case "heuristic":
		m, c, err := heuristic.Construct(ev, k, cons)
		if err != nil {
			fatal(err)
		}
		return &search.Result{Best: m, BestCost: c, Evaluated: 1, Valid: 1}
	case "warm":
		m, _, err := heuristic.Construct(ev, k, cons)
		if err != nil {
			fatal(err)
		}
		opt.WarmStart = m
		searcher = "random"
	}
	res, err := search.Run(ctx, sp, eng, searcher, opt)
	if err != nil {
		fatal(err)
	}
	return res
}

// checkpointable lists the -search values -checkpoint and -resume accept:
// the resumable algorithms, and warm (a random search from the heuristic's
// mapping).
var checkpointable = strings.Join(search.ResumableAlgorithms, "|") + "|warm"

// runCheckpointable drives the resumable searchers under RunCheckpointed:
// periodic snapshots into dir, a final snapshot on interruption, and exact
// continuation with -resume. An interrupted run returns its best-so-far
// result (nil error) after pointing at the snapshot.
func runCheckpointable(ctx context.Context, searcher string, sp *mapspace.Space, eng *engine.Engine,
	ev *nest.Evaluator, k mapspace.Kind, cons mapspace.Constraints,
	opt search.Options, maxEnum int64, dir string, resume bool) (*search.Result, error) {

	algo := searcher
	if searcher == "warm" {
		m, _, err := heuristic.Construct(ev, k, cons)
		if err != nil {
			return nil, err
		}
		opt.WarmStart = m
		algo = "random"
	}
	sr, err := search.NewSearcherFor(algo, sp, eng, opt, maxEnum)
	if err != nil {
		return nil, fmt.Errorf("-checkpoint/-resume supports %s, not %q", checkpointable, searcher)
	}
	var cc search.CheckpointConfig
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cc.Path = filepath.Join(dir, "rubymap.search.json")
	}
	if resume {
		if cc.Path == "" {
			return nil, fmt.Errorf("-resume requires -checkpoint DIR")
		}
		if ok, err := search.RestoreFromFile(ctx, sr, cc.Path); err != nil {
			return nil, err
		} else if ok {
			fmt.Printf("resumed search from %s (%d evaluations done)\n\n", cc.Path, sr.Result().Evaluated)
		}
	}
	res, err := search.RunCheckpointed(ctx, sr, cc)
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		if cc.Path != "" {
			fmt.Printf("checkpoint written to %s (continue with -resume)\n", cc.Path)
		}
	}
	return res, nil
}

// reportAndExit prints the winning mapping with its cost breakdown and the
// requested extras, storing it in the library/save file first.
func reportAndExit(res *search.Result, w *workload.Workload, a *arch.Arch, k mapspace.Kind,
	sp *mapspace.Space, ev *nest.Evaluator, lib *library.Store, libKey string,
	savePath string, tree, verbose, simulate bool) {

	if res.Best == nil {
		fatal(fmt.Errorf("no valid mapping found after %d samples", res.Evaluated))
	}
	if lib != nil {
		if err := lib.Put(libKey, res.Best); err != nil {
			fatal(err)
		}
	}
	if savePath != "" {
		data, err := res.Best.Encode()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(savePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("saved best mapping to %s\n\n", savePath)
	}

	fmt.Printf("workload: %s (%d MACs)\n", w.Name, w.MACs())
	fmt.Printf("arch:     %s (%d lanes, %.2f mm^2)\n", a.Name, a.TotalLanes(), a.AreaMM2())
	fmt.Printf("mapspace: %s (tiling size %d), %d/%d samples valid\n\n",
		k, sp.TotalChainCount(), res.Valid, res.Evaluated)
	fmt.Println(res.Best.Render(w, a))

	c := res.BestCost
	fmt.Printf("cycles:      %.0f\n", c.Cycles)
	fmt.Printf("utilization: %.1f%%\n", 100*c.Utilization)
	fmt.Printf("energy:      %s\n", energy.Format(c.EnergyPJ))
	fmt.Printf("EDP:         %.4g pJ*cycles\n\n", c.EDP)
	fmt.Println("per-level accesses (words):")
	for li := range a.Levels {
		fmt.Printf("  %-6s reads %.3e  writes %.3e  energy %s\n",
			a.Levels[li].Name, c.LevelReads[li], c.LevelWrites[li], energy.Format(c.LevelEnergyPJ[li]))
	}
	fmt.Printf("  MACs   %s\n", energy.Format(c.MACEnergyPJ))

	if tree {
		fmt.Println("\nfactorization trees:")
		for _, d := range w.DimNames() {
			if w.Bound(d) > 1 {
				fmt.Print(res.Best.RenderTree(w, a, d))
			}
		}
	}

	if verbose {
		links, err := ev.Links(res.Best)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nper-tensor transfers (model):")
		for _, ls := range links {
			fmt.Printf("  %-2s %s -> %s: fills %.0f x deliv %.0f x tile %.0f words (reads mult %.0f)\n",
				ls.Tensor, a.Levels[ls.Parent].Name, a.Levels[ls.Child].Name,
				ls.Fills, ls.DelivMult, ls.Vol, ls.ReadsMult)
		}
	}

	if simulate {
		sm, err := sim.New(w, a, sim.Options{})
		if err != nil {
			fatal(err)
		}
		sres, err := sm.Run(res.Best)
		if err != nil {
			fatal(fmt.Errorf("simulation: %w (the simulator only handles small iteration spaces)", err))
		}
		match := "MISMATCH"
		if sres.Cycles == res.BestCost.Cycles {
			match = "exact match"
		}
		fmt.Printf("\nsimulator cross-check: %.0f cycles (%s)\n", sres.Cycles, match)
	}
}

// writeTrace dumps the recorder's spans as Chrome-trace JSON.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listWorkloads() {
	var names []string
	for _, l := range workloads.ResNet50() {
		names = append(names, fmt.Sprintf("%-24s resnet50  %-9s %d MACs", l.Name, l.Type, l.Work.MACs()))
	}
	for _, l := range workloads.DeepBench() {
		names = append(names, fmt.Sprintf("%-24s deepbench %-9s %d MACs", l.Name, l.Type, l.Work.MACs()))
	}
	names = append(names, fmt.Sprintf("%-24s alexnet   %-9s %d MACs", "alexnet_conv2", "conv", workloads.AlexNetConv2().MACs()))
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n)
	}
}

func resolveWorkload(name, convStr, mmStr string) (*workload.Workload, error) {
	switch {
	case convStr != "":
		return parseConv(convStr)
	case mmStr != "":
		return parseMatmul(mmStr)
	case name == "alexnet_conv2":
		return workloads.AlexNetConv2(), nil
	case name != "":
		for _, l := range append(workloads.ResNet50(), workloads.DeepBench()...) {
			if l.Name == name {
				return l.Work, nil
			}
		}
		return nil, fmt.Errorf("unknown workload %q (try -list)", name)
	default:
		return nil, fmt.Errorf("one of -workload, -conv, -matmul is required")
	}
}

func parseConv(s string) (*workload.Workload, error) {
	p := workload.Conv2DParams{Name: "cli_conv", N: 1}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad conv spec %q", kv)
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad conv value %q: %w", kv, err)
		}
		switch strings.ToLower(parts[0]) {
		case "n":
			p.N = v
		case "m":
			p.M = v
		case "c":
			p.C = v
		case "p":
			p.P = v
		case "q":
			p.Q = v
		case "r":
			p.R = v
		case "s":
			p.S = v
		case "sh":
			p.StrideH = v
		case "sw":
			p.StrideW = v
		default:
			return nil, fmt.Errorf("unknown conv key %q", parts[0])
		}
	}
	return workload.Conv2D(p)
}

func parseMatmul(s string) (*workload.Workload, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return nil, fmt.Errorf("matmul spec must be MxNxK, got %q", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad matmul dim %q: %w", p, err)
		}
		dims[i] = v
	}
	return workload.Matmul("cli_matmul", dims[0], dims[1], dims[2])
}

// loadArch reads -arch-file when given, with no default dataflow, and
// otherwise parses the -arch preset with the preset's dataflow.
func loadArch(preset, file string) (*arch.Arch, arch.Dataflow, error) {
	if file != "" {
		a, err := config.LoadArch(file)
		return a, arch.DataflowNone, err
	}
	return arch.ParsePreset(preset)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rubymap: %v\n", err)
	os.Exit(1)
}
