// Command rubycoord coordinates a distributed mapspace search across a
// fleet of rubyserve workers.
//
//	# three workers on one box
//	rubyserve -addr 127.0.0.1:8731 -state /tmp/w1 &
//	rubyserve -addr 127.0.0.1:8732 -state /tmp/w2 &
//	rubyserve -addr 127.0.0.1:8733 -state /tmp/w3 &
//
//	rubycoord \
//	  -workload-file configs/alexnet_conv2.json \
//	  -arch-file configs/eyeriss_like.json \
//	  -search random -shards 12 -evals 24000 \
//	  -workers http://127.0.0.1:8731,http://127.0.0.1:8732,http://127.0.0.1:8733 \
//	  -state /tmp/coord.json
//
// The plan is built deterministically from the problem, the algorithm, the
// seed and -shards (see internal/dist.BuildPlan); the merged result is
// bit-identical to a single-node run of the same plan (-local executes that
// reference run in-process), regardless of worker count, scheduling or
// worker kills. On SIGINT/SIGTERM the coordinator persists its state to
// -state and exits; -resume continues from that file, re-running only the
// unfinished shards. docs/DISTRIBUTED.md documents the contract and
// docs/OPERATIONS.md the operational details.
//
// With -addr the coordinator additionally serves a read-only status API
// (GET /v1/shards, /v1/shards/{index}, /v1/metrics, /v1/healthz) for
// progress watching and Prometheus scrapes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ruby/internal/dist"
	"ruby/internal/obs"
	"ruby/internal/search"
	"ruby/internal/server"
)

func main() {
	var (
		wlFile   = flag.String("workload-file", "", "JSON workload file (see configs/)")
		archFile = flag.String("arch-file", "", "JSON architecture file")
		consFile = flag.String("constraints-file", "", "JSON constraints file (optional)")
		kind     = flag.String("mapspace", "ruby-s", "pfm | ruby | ruby-s | ruby-t")
		algo     = flag.String("search", "exhaustive", "sharded algorithm: exhaustive (chain plan) | random | guided | hillclimb (substream plans)")
		objFlag  = flag.String("objective", "edp", "edp | energy | delay")
		seed     = flag.Int64("seed", 1, "plan seed (per-shard substream seeds derive from it)")
		shards   = flag.Int("shards", 8, "number of shards to partition the search into")
		evals    = flag.Int64("evals", 0, "total evaluation budget, split across shards (required for substream plans; 0 = full scan, exhaustive only)")
		noImp    = flag.Int64("no-improve", 0, "per-shard consecutive-no-improvement stop (stochastic searchers; 0 = off)")
		workers  = flag.String("workers", "", "comma-separated worker base URLs, e.g. http://127.0.0.1:8731,http://127.0.0.1:8732")
		state    = flag.String("state", "", "coordinator state file; persisted every poll tick and on every shard completion or failure, so an interrupted run can -resume (empty = in-memory only)")
		resume   = flag.Bool("resume", false, "continue from the plan state in -state (finished shards are not re-run)")
		leaseTTL = flag.Duration("lease", dist.DefaultLeaseTTL, "shard lease TTL; a worker silent for this long has its shard re-queued")
		poll     = flag.Duration("poll", 200*time.Millisecond, "fleet poll interval: the job long-poll wait (the lease heartbeat) and the idle and dead-worker retry period; a finished shard is seen at once, not on this tick")
		addr     = flag.String("addr", "", "serve the read-only status API (/v1/shards, /v1/metrics) on this address (empty = off)")
		local    = flag.Bool("local", false, "run the single-node reference execution in-process instead of a fleet (no workers needed)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this wall time (0 = none)")
	)
	flag.Parse()

	spec, plan, coord, err := setup(*wlFile, *archFile, *consFile, *kind, *algo, *objFlag,
		*seed, *shards, *evals, *noImp, *state, *resume, *leaseTTL)
	if err != nil {
		fatal(err)
	}
	log.Printf("rubycoord: %s plan, %d shards (algo %s, seed %d)", plan.Kind, len(plan.Shards), plan.Algo, plan.Seed)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *local {
		merged, err := dist.RunLocal(ctx, spec, plan)
		report(merged, err)
		return
	}

	urls := splitWorkers(*workers)
	if len(urls) == 0 {
		fatal(fmt.Errorf("no workers: pass -workers URL[,URL...] or -local"))
	}
	reg := obs.NewRegistry()
	coord.Register(reg)
	fleet := &dist.Fleet{
		Coord:        coord,
		Spec:         spec,
		Workers:      urls,
		PollInterval: *poll,
		StatePath:    *state,
	}
	fleet.RegisterWorkers(reg)

	if *addr != "" {
		srv := &http.Server{
			Addr:              *addr,
			Handler:           server.CoordinatorHandler(coord, reg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("rubycoord: status API on %s", *addr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("rubycoord: status API: %v", err)
			}
		}()
		defer srv.Close()
	}

	merged, err := fleet.Run(ctx)
	if err != nil && *state != "" {
		log.Printf("rubycoord: interrupted (%v); state saved to %s, continue with -resume", err, *state)
	}
	report(merged, err)
}

// setup resolves the problem and builds (or restores) the plan and its
// coordinator.
func setup(wlFile, archFile, consFile, kind, algo, obj string,
	seed int64, shards int, evals, noImp int64,
	state string, resume bool, leaseTTL time.Duration) (*dist.JobSpec, *dist.Plan, *dist.Coordinator, error) {

	if resume {
		if state == "" {
			return nil, nil, nil, fmt.Errorf("-resume needs -state FILE")
		}
		st, err := dist.LoadState(state)
		if err != nil {
			return nil, nil, nil, err
		}
		if st.Spec == nil {
			return nil, nil, nil, fmt.Errorf("state file %s has no embedded spec", state)
		}
		// Sanity-check the stored plan against the spec it claims to solve.
		_, sp, err := st.Spec.Resolve()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := st.Plan.Validate(sp); err != nil {
			return nil, nil, nil, err
		}
		coord, err := dist.RestoreCoordinator(st, leaseTTL, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		return st.Spec, st.Plan, coord, nil
	}

	if wlFile == "" || archFile == "" {
		return nil, nil, nil, fmt.Errorf("-workload-file and -arch-file are required (or -resume)")
	}
	spec := &dist.JobSpec{Mapspace: kind, Search: algo, Objective: obj, NoImprove: noImp}
	var err error
	if spec.Workload, err = os.ReadFile(wlFile); err != nil {
		return nil, nil, nil, err
	}
	if spec.Arch, err = os.ReadFile(archFile); err != nil {
		return nil, nil, nil, err
	}
	if consFile != "" {
		if spec.Constraints, err = os.ReadFile(consFile); err != nil {
			return nil, nil, nil, err
		}
	}
	_, sp, err := spec.Resolve()
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := search.ParseObjective(obj); err != nil {
		return nil, nil, nil, err
	}
	plan, err := dist.BuildPlan(sp, algo, seed, shards, evals)
	if err != nil {
		return nil, nil, nil, err
	}
	return spec, plan, dist.NewCoordinator(plan, leaseTTL, nil), nil
}

func splitWorkers(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// report prints the merged outcome as indented JSON on stdout; a run that
// ended early still reports the merge-so-far before exiting nonzero.
func report(merged *dist.Merged, err error) {
	if merged != nil {
		out, _ := json.MarshalIndent(merged, "", "  ")
		fmt.Println(string(out))
	}
	if err != nil {
		fatal(err)
	}
	if merged == nil || merged.Best == nil {
		fatal(fmt.Errorf("no valid mapping found"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rubycoord:", err)
	os.Exit(1)
}
