package dist_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ruby/internal/dist"
	"ruby/internal/server"
)

// The integration tests run a real coordinator against real rubyserve
// workers (httptest servers around server.NewService) and check the
// distributed determinism contract end to end: the merged incumbent and
// counters must be bit-identical to RunLocal's single-node execution of the
// same spec and plan — with or without worker kills mid-shard.

func integSpec(algo string) *dist.JobSpec {
	return &dist.JobSpec{
		Workload: json.RawMessage(`{"name": "mm", "type": "matmul", "matmul": {"m": 12, "n": 6, "k": 4}}`),
		Arch: json.RawMessage(`{
		  "name": "toy",
		  "levels": [
		    {"name": "DRAM"},
		    {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}
		  ]}`),
		Mapspace: "ruby-s",
		Search:   algo,
	}
}

// newWorker starts one rubyserve worker with its own state directory.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := newCountedWorker(t, false)
	return ts
}

// newCountedWorker starts a worker behind a countingWorker. With dropQuery
// the worker ignores query strings, like a worker that predates wait_ms.
func newCountedWorker(t *testing.T, dropQuery bool) (*httptest.Server, *countingWorker) {
	t.Helper()
	svc, err := server.NewService(server.Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingWorker{h: svc, dropQuery: dropQuery, polls: map[string]int{}}
	ts := httptest.NewServer(cw)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return ts, cw
}

// countingWorker wraps a worker's handler. It counts the requests in
// flight and the GET /v1/jobs/{id} status requests per job.
type countingWorker struct {
	h         http.Handler
	dropQuery bool
	inflight  atomic.Int64

	mu    sync.Mutex
	polls map[string]int
}

func (c *countingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if c.dropQuery {
		r.URL.RawQuery = ""
	}
	if id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok && r.Method == http.MethodGet && !strings.Contains(id, "/") {
		c.mu.Lock()
		c.polls[id]++
		c.mu.Unlock()
	}
	c.h.ServeHTTP(w, r)
}

// requireIdle asserts no request is in flight on any of the workers.
func requireIdle(t *testing.T, when string, workers ...*countingWorker) {
	t.Helper()
	for i, cw := range workers {
		if n := cw.inflight.Load(); n != 0 {
			t.Errorf("%s: worker %d still serves %d request(s)", when, i, n)
		}
	}
}

// killAfterSubmits closes a worker's listener right after it has accepted
// its nth job submission — a deterministic mid-shard worker loss, whatever
// the scheduling: the job keeps running inside the dying process, but the
// fleet can no longer reach it and must re-queue the shard.
type killAfterSubmits struct {
	h       http.Handler
	n       int
	kill    func()
	mu      sync.Mutex
	submits int
}

func (k *killAfterSubmits) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.h.ServeHTTP(w, r)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		k.mu.Lock()
		k.submits++
		hit := k.submits == k.n
		k.mu.Unlock()
		if hit {
			go k.kill()
		}
	}
}

func mustPlan(t *testing.T, spec *dist.JobSpec, algo string, seed int64, n int, budget int64) *dist.Plan {
	t.Helper()
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.BuildPlan(sp, algo, seed, n, budget)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// requireIdentical asserts the fleet outcome matches the single-node
// reference bit for bit: mapping bytes (the mapping key), objective,
// winning shard and both counters.
func requireIdentical(t *testing.T, got, want *dist.Merged) {
	t.Helper()
	if want.Best == nil {
		t.Fatal("reference run found no incumbent; test problem is broken")
	}
	if string(got.Best) != string(want.Best) {
		t.Errorf("merged incumbent differs:\nfleet: %s\nlocal: %s", got.Best, want.Best)
	}
	if got.BestObjective != want.BestObjective {
		t.Errorf("merged objective %v, want %v", got.BestObjective, want.BestObjective)
	}
	if got.BestShard != want.BestShard {
		t.Errorf("winning shard %d, want %d", got.BestShard, want.BestShard)
	}
	if got.Evaluated != want.Evaluated || got.Valid != want.Valid {
		t.Errorf("counters %d/%d, want %d/%d", got.Evaluated, got.Valid, want.Evaluated, want.Valid)
	}
}

// TestFleetMatchesLocalExhaustive: three workers scan a chain-sharded
// exhaustive plan; the merge must equal the sequential single-node scan.
func TestFleetMatchesLocalExhaustive(t *testing.T) {
	spec := integSpec("exhaustive")
	plan := mustPlan(t, spec, "exhaustive", 7, 4, 0)

	local, err := dist.RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}

	workers := []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}
	fleet := &dist.Fleet{
		Coord:        dist.NewCoordinator(plan, 5*time.Second, nil),
		Spec:         spec,
		Workers:      workers,
		PollInterval: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := fleet.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, merged, local)
}

// TestFleetSurvivesWorkerKill: three workers run a substream plan; one
// worker is killed immediately after accepting its first shard. The shard
// re-queues onto a surviving worker and the merged result is still
// bit-identical to the single-node reference.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	spec := integSpec("random")
	plan := mustPlan(t, spec, "random", 42, 6, 9000)

	local, err := dist.RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 dies after accepting its first job.
	svc, err := server.NewService(server.Options{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	killer := &killAfterSubmits{h: svc, n: 1}
	doomed := httptest.NewServer(killer)
	killer.kill = doomed.Close
	t.Cleanup(func() {
		doomed.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})

	workers := []string{doomed.URL, newWorker(t).URL, newWorker(t).URL}
	fleet := &dist.Fleet{
		Coord:        dist.NewCoordinator(plan, 5*time.Second, nil),
		Spec:         spec,
		Workers:      workers,
		PollInterval: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := fleet.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, merged, local)

	requeued := 0
	for _, sv := range fleet.Coord.Shards() {
		requeued += sv.Requeues
	}
	if requeued == 0 {
		t.Error("kill was not observed: no shard was re-queued")
	}
}

// TestFleetResumeFromState: a two-worker run is cancelled mid-plan with its
// state persisted; a fresh coordinator restored from the file completes only
// the remaining shards, and the final merge is bit-identical to the
// single-node reference.
func TestFleetResumeFromState(t *testing.T) {
	spec := integSpec("exhaustive")
	plan := mustPlan(t, spec, "exhaustive", 7, 4, 0)

	local, err := dist.RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}

	ts0, cw0 := newCountedWorker(t, false)
	ts1, cw1 := newCountedWorker(t, false)
	workers := []string{ts0.URL, ts1.URL}
	statePath := t.TempDir() + "/coord.json"
	coord := dist.NewCoordinator(plan, 5*time.Second, nil)
	fleet := &dist.Fleet{
		Coord:        coord,
		Spec:         spec,
		Workers:      workers,
		PollInterval: 2 * time.Millisecond,
		StatePath:    statePath,
	}

	// Cancel as soon as the first shard completes, so the resumed run has
	// both finished and unfinished shards to deal with.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runCtx, interrupt := context.WithCancel(ctx)
	stop := make(chan struct{})
	go func() {
		defer interrupt()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			for _, sv := range coord.Shards() {
				if sv.Status == dist.ShardDone {
					return
				}
			}
		}
	}()
	_, runErr := fleet.Run(runCtx)
	close(stop)
	if runErr == nil {
		t.Log("plan finished before the interrupt; resume still exercised below")
	}
	requireIdle(t, "after the interrupted run", cw0, cw1)

	st, err := dist.LoadState(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec == nil {
		t.Fatal("state file lacks the embedded spec")
	}
	coord2, err := dist.RestoreCoordinator(st, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet2 := &dist.Fleet{
		Coord:        coord2,
		Spec:         st.Spec,
		Workers:      workers,
		PollInterval: 5 * time.Millisecond,
		StatePath:    statePath,
	}
	merged, err := fleet2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireIdle(t, "after the resumed run", cw0, cw1)
	requireIdentical(t, merged, local)
}

// TestFleetReactsWithinTick: with a 5 s PollInterval, a fleet that learned
// of finished shards only on its tick would need at least four ticks (20 s)
// for two workers on four shards. The long-poll reports each completion at
// once and the freed worker leases its next shard in the same step, so the
// run finishes well inside one tick.
func TestFleetReactsWithinTick(t *testing.T) {
	spec := integSpec("exhaustive")
	plan := mustPlan(t, spec, "exhaustive", 7, 4, 0)
	local, err := dist.RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}

	ts0, cw0 := newCountedWorker(t, false)
	ts1, cw1 := newCountedWorker(t, false)
	fleet := &dist.Fleet{
		Coord:        dist.NewCoordinator(plan, 30*time.Second, nil),
		Spec:         spec,
		Workers:      []string{ts0.URL, ts1.URL},
		PollInterval: 5 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	merged, err := fleet.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireIdle(t, "after the run", cw0, cw1)
	requireIdentical(t, merged, local)
}

// TestFleetWorkerWithoutWait: a worker that ignores wait_ms answers every
// status request at once. The fleet must still finish bit-identical, and
// must wait out each PollInterval between polls instead of busy-polling.
func TestFleetWorkerWithoutWait(t *testing.T) {
	spec := integSpec("random")
	plan := mustPlan(t, spec, "random", 42, 4, 40000)
	local, err := dist.RunLocal(context.Background(), spec, plan)
	if err != nil {
		t.Fatal(err)
	}

	old, oldCount := newCountedWorker(t, true)
	cur, curCount := newCountedWorker(t, false)
	const poll = 20 * time.Millisecond
	fleet := &dist.Fleet{
		Coord:        dist.NewCoordinator(plan, 30*time.Second, nil),
		Spec:         spec,
		Workers:      []string{old.URL, cur.URL},
		PollInterval: poll,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	merged, err := fleet.Run(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	requireIdle(t, "after the run", oldCount, curCount)
	requireIdentical(t, merged, local)

	limit := int(elapsed/poll) + 2
	oldCount.mu.Lock()
	defer oldCount.mu.Unlock()
	if len(oldCount.polls) == 0 {
		t.Fatal("the worker without wait_ms ran no shard")
	}
	for id, n := range oldCount.polls {
		if n > limit {
			t.Errorf("job %s polled %d times in %v; at most %d without busy-polling", id, n, elapsed, limit)
		}
	}
}
