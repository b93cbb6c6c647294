// Command rubyserve exposes the mapper as a JSON-over-HTTP service.
//
//	rubyserve -addr :8731 -state /var/lib/ruby
//
//	curl localhost:8731/v1/suites
//	curl -X POST localhost:8731/v1/search -d '{
//	  "workload": {"name": "fc", "type": "matmul", "matmul": {"m": 1000, "n": 1, "k": 2048}},
//	  "arch": {"name": "eyeriss", "levels": [
//	    {"name": "DRAM"},
//	    {"name": "GLB", "capacity_kib": 128, "keeps": ["input", "output"],
//	     "fanout": {"x": 14, "y": 12, "multicast": true}},
//	    {"name": "PE", "per_role_words": {"input": 12, "output": 16, "weight": 224}}]},
//	  "mapspace": "ruby-s", "max_evaluations": 50000
//	}'
//
// Asynchronous jobs (POST /v1/jobs) are fault tolerant when -state DIR is
// set: job records and periodic search checkpoints live in DIR, so a restart
// re-lists finished jobs and resumes interrupted ones with results identical
// to an uninterrupted run. On SIGINT/SIGTERM the server refuses new jobs,
// drains running jobs to their checkpoints (releasing job long-polls as
// "interrupted"), stops accepting requests, and exits cleanly.
//
// Observability: GET /v1/metrics serves the Prometheus text exposition to
// clients sending Accept: text/plain (JSON counters otherwise, see
// docs/API.md); -slow-eval/-slow-search emit structured warnings for
// outlier operations.
package main

import (
	"context"
	"expvar"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ruby/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8731", "listen address")
	stateDir := flag.String("state", "", "directory for job records and search checkpoints; jobs survive restarts (empty = in-memory only)")
	drainTO := flag.Duration("drain-timeout", 30*time.Second, "max time to drain running jobs on shutdown")
	slowEval := flag.Duration("slow-eval", 0, "log sampled evaluations slower than this (0 = off)")
	slowSearch := flag.Duration("slow-search", 0, "log searches slower than this (0 = off)")
	algo := flag.String("search", "", "default search algorithm for requests that do not name one (random | guided | hillclimb | anneal | genetic | portfolio | exhaustive)")
	flag.Parse()

	svc, err := server.NewService(server.Options{
		StateDir:      *stateDir,
		SlowEval:      *slowEval,
		SlowSearch:    *slowSearch,
		DefaultSearch: *algo,
	})
	if err != nil {
		log.Fatalf("rubyserve: %v", err)
	}
	// Pipeline counters are served at /v1/metrics and, via expvar, at
	// /debug/vars alongside the runtime's variables.
	svc.Counters().Publish("ruby_engine")
	mux := http.NewServeMux()
	mux.Handle("/", svc)
	mux.Handle("GET /debug/vars", expvar.Handler())

	// Profiling endpoints (the custom mux bypasses net/http/pprof's
	// DefaultServeMux registrations): /debug/pprof/ for the index,
	// /debug/pprof/profile for CPU, /debug/pprof/heap for allocations —
	// how hot-path regressions in the evaluation pipeline get diagnosed.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("rubyserve: shutting down (draining jobs, timeout %v)", *drainTO)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		// Park running jobs in their checkpoints first, so the next -state
		// run resumes them: the drain already refuses new submissions, and
		// it releases the GET /v1/jobs/{id}?wait_ms=N long-polls (they
		// report "interrupted"), which the HTTP shutdown below would
		// otherwise wait out.
		if err := svc.Shutdown(dctx); err != nil {
			log.Printf("rubyserve: job drain: %v", err)
		}
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("rubyserve: http shutdown: %v", err)
		}
	}()
	log.Printf("rubyserve listening on %s", *addr)
	if *stateDir != "" {
		log.Printf("rubyserve: persisting jobs in %s", *stateDir)
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	log.Printf("rubyserve: bye")
}
