package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"ruby/internal/dist"
	"ruby/internal/obs"
	"ruby/internal/server"
)

// fleet-exhaustive: one in-process dist.Fleet run per op at rubycoord's
// defaults (exhaustive search, fleetShards chain shards, default lease)
// over fleetWorkers httptest workers built by server.NewService, each with
// its own state directory. Enumeration makes every mapping unique, so the
// engine cache is pure overhead here; the ops also go through async jobs,
// checkpoint writes to disk and the coordinator's lease/poll loop — the
// only workload that does.

const (
	// fleetWorkers is the worker count: one per CPU of the two-CPU machine
	// the benchmark is sized for.
	fleetWorkers = 2
	// fleetShards is rubycoord's default shard count.
	fleetShards = 8
)

// fleetShapes are the pinned toy-GLB problems fleet-exhaustive cycles
// through, with 195,520, 187,200 and 208,000 mappings: large enough that
// shard work dominates a poll tick, small enough for several runs a round.
var fleetShapes = []string{
	`{"name": "mm360x180x36", "type": "matmul", "matmul": {"m": 360, "n": 180, "k": 36}}`,
	`{"name": "conv8x4x3", "type": "conv2d", "conv": {"N": 8, "M": 4, "C": 3, "P": 6, "Q": 4, "R": 2, "S": 1}}`,
	`{"name": "mm420x180x60", "type": "matmul", "matmul": {"m": 420, "n": 180, "k": 60}}`,
}

// fleetProblem is one shape with its plan and single-node reference.
type fleetProblem struct {
	spec      *dist.JobSpec
	plan      *dist.Plan
	local     *dist.Merged
	localWall time.Duration
}

type fleetRunner struct {
	e        *env
	problems []fleetProblem
	svcs     []*server.Service
	servers  []*httptest.Server
	urls     []string
	dirs     []string
	// http is the fleet's transport; it counts the coordinator's requests.
	http    *http.Client
	counted *countingTransport
	wrong   error

	// Traced rounds only.
	tracing   bool
	before    counters
	requests0 int64
	stateKB0  float64
	localWall time.Duration
	requeues  int
	valid     int64
}

func startFleet(ctx context.Context, e *env) (runner, error) {
	f := &fleetRunner{e: e, counted: &countingTransport{base: &http.Transport{}}}
	f.http = &http.Client{Transport: f.counted}
	for i := 0; i < fleetWorkers; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("worker-%d", i))
		svc, err := server.NewService(server.Options{StateDir: dir})
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(svc)
		f.svcs, f.servers, f.dirs = append(f.svcs, svc), append(f.servers, ts), append(f.dirs, dir)
		f.urls = append(f.urls, ts.URL)
		if err := (&dist.Client{Base: ts.URL, HTTP: f.http}).Healthz(ctx); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, shape := range e.size.fleetShapes {
		p := fleetProblem{spec: &dist.JobSpec{
			Workload: json.RawMessage(shape), Arch: json.RawMessage(toyArchJSON),
			Mapspace: "ruby-s", Search: "exhaustive",
		}}
		_, sp, err := p.spec.Resolve()
		if err == nil {
			p.plan, err = dist.BuildPlan(sp, "exhaustive", e.seed, fleetShards, 0)
		}
		if err != nil {
			f.close()
			return nil, err
		}
		start := time.Now()
		if p.local, err = dist.RunLocal(ctx, p.spec, p.plan); err != nil {
			f.close()
			return nil, err
		}
		p.localWall = time.Since(start)
		f.problems = append(f.problems, p)
	}
	return f, nil
}

func (f *fleetRunner) round(ctx context.Context, r int) []sample {
	if obs.RecorderFrom(ctx) != nil && !f.tracing {
		f.beginTrace(ctx)
	}
	order := rand.New(rand.NewSource(f.e.seed*1000 + int64(r))).Perm(len(f.problems))
	out := make([]sample, 0, len(order))
	for _, i := range order {
		s, err := f.op(ctx, i)
		if err != nil {
			s.failed = true
		}
		out = append(out, s)
	}
	return out
}

// op coordinates problem i's plan across the workers once; the merge must be
// bit-identical to the single-node reference.
func (f *fleetRunner) op(ctx context.Context, i int) (sample, error) {
	p := f.problems[i]
	fleet := &dist.Fleet{
		Coord:        dist.NewCoordinator(p.plan, 0, nil),
		Spec:         p.spec,
		Workers:      f.urls,
		HTTP:         f.http,
		PollInterval: f.e.size.fleetPoll,
	}
	ctx, span := obs.StartSpan(ctx, "op")
	start := time.Now()
	merged, err := fleet.Run(ctx)
	s := sample{dur: time.Since(start)}
	span.End()
	if err != nil {
		return s, err
	}
	s.evals, s.edp = merged.Evaluated, merged.BestObjective
	if f.tracing {
		f.localWall += p.localWall
		f.valid += merged.Valid
		for _, sv := range fleet.Coord.Shards() {
			f.requeues += sv.Requeues
		}
	}
	want := p.local
	if f.wrong == nil && (!bytes.Equal(merged.Best, want.Best) || merged.BestObjective != want.BestObjective ||
		merged.BestShard != want.BestShard || merged.Evaluated != want.Evaluated || merged.Valid != want.Valid) {
		f.wrong = fmt.Errorf("fleet-exhaustive: merge (shard %d, objective %v, %d/%d valid) differs from RunLocal (shard %d, objective %v, %d/%d valid)",
			merged.BestShard, merged.BestObjective, merged.Valid, merged.Evaluated,
			want.BestShard, want.BestObjective, want.Valid, want.Evaluated)
	}
	return s, nil
}

// workerCounters sums the workers' /v1/metrics counters.
func (f *fleetRunner) workerCounters(ctx context.Context) (counters, error) {
	sum := counters{}
	for _, u := range f.urls {
		c, err := scrape(ctx, http.DefaultClient, u)
		if err != nil {
			return nil, err
		}
		sum = sum.add(c, 1)
	}
	return sum, nil
}

// stateKB is the size of the workers' state directories.
func (f *fleetRunner) stateKB() (float64, error) {
	var n int64
	for _, d := range f.dirs {
		err := filepath.WalkDir(d, func(_ string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() {
				return err
			}
			info, err := de.Info()
			if err == nil {
				n += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(n) / 1024, nil
}

// beginTrace takes the traced half's baselines.
func (f *fleetRunner) beginTrace(ctx context.Context) {
	f.tracing = true
	f.requests0 = f.counted.n.Load()
	var err error
	if f.before, err = f.workerCounters(ctx); err == nil {
		f.stateKB0, err = f.stateKB()
	}
	if err != nil && f.wrong == nil {
		f.wrong = err
	}
}

func (f *fleetRunner) layers(ctx context.Context, w *window, _ map[string]spanStat) map[string]float64 {
	ops := float64(len(w.samples))
	after, err := f.workerCounters(ctx)
	var kb float64
	if err == nil {
		kb, err = f.stateKB()
	}
	if err != nil && f.wrong == nil {
		f.wrong = err
	}
	delta := after.add(f.before, -1)
	wall := w.opSeconds()
	lm := map[string]float64{
		"dist.fleet_vs_local":        ratio(wall, f.localWall.Seconds()),
		"dist.idle_frac":             1 - ratio(delta["ruby_search_seconds_total"], wall*fleetWorkers),
		"dist.http_requests_per_op":  float64(f.counted.n.Load()-f.requests0) / ops,
		"dist.requeues":              float64(f.requeues),
		"checkpoint.state_kb_per_op": (kb - f.stateKB0) / ops,
		"mapspace.valid_frac":        ratio(float64(f.valid), float64(w.evals())),
		"nest.evals_per_op":          float64(w.evals()) / ops,
	}
	putEngine(lm, delta, delta["ruby_search_seconds_total"])
	return lm
}

func (f *fleetRunner) check() error { return f.wrong }

func (f *fleetRunner) close() {
	f.http.CloseIdleConnections()
	for _, ts := range f.servers {
		ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, svc := range f.svcs {
		_ = svc.Shutdown(ctx) // every job finished with its op; nothing to drain
	}
}
