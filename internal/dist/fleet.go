package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"ruby/internal/obs"
	"ruby/internal/search"
)

// Fleet drives one Coordinator against rubyserve workers over the /v1 jobs
// API. Each worker runs its own loop on its own goroutine: lease a shard,
// submit it as a job, then long-poll the job (GET /v1/jobs/{id}?wait_ms=N
// with N = PollInterval). A long-poll that finds the job running is the
// lease heartbeat and collects the worker-side checkpoint; one that finds
// it done completes the shard, and the worker leases its next shard in the
// same step. Unreachable workers have their shard re-queued and are probed
// until they revive. Run's own goroutine expires stale leases, applies the
// poison-shard and dead-fleet guards and persists the coordinator state on
// every PollInterval tick and on every shard completion or failure. Because
// every shard's result is deterministic, the fleet's merged outcome does
// not depend on which worker ran what, or how often shards were re-queued.
type Fleet struct {
	Coord *Coordinator
	// Spec is the problem and base search configuration shipped with every
	// shard.
	Spec *JobSpec
	// Workers lists the worker base URLs.
	Workers []string
	// HTTP is the shared transport (nil = http.DefaultClient).
	HTTP *http.Client
	// PollInterval (default 200ms) bounds the heartbeat: it is the longest
	// a job long-poll waits, and the retry period of idle and dead workers
	// and of the lease, guard and persistence tick. A finished shard is
	// seen as soon as it finishes, not at the next tick. Keep it well below
	// the coordinator's lease TTL: long-poll returns are the heartbeat.
	PollInterval time.Duration
	// StatePath, when set, persists the coordinator state (checkpoint kind
	// "shards") every tick and on every shard completion or failure, so an
	// interrupted run resumes with -resume.
	StatePath string
	// MaxRequeues aborts the run when any single shard has been re-queued
	// this many times (default 8) — a shard that fails on every worker is
	// a deterministic failure, not a fleet problem.
	MaxRequeues int
	// GiveUpAfter aborts the run when every worker has been continuously
	// unreachable for this long (default 30s; 0 keeps the default).
	GiveUpAfter time.Duration
	// Log receives fleet events (nil = slog.Default()).
	Log *slog.Logger

	// mu guards the live worker table, whose states the worker loops
	// mutate and Run and the ruby_fleet_workers gauge closure read.
	//ruby:guards workers
	mu      sync.Mutex
	workers []*fleetWorker
}

// Worker states tracked by the fleet (the ruby_fleet_workers gauge).
const (
	workerIdle = "idle"
	workerBusy = "busy"
	workerDead = "dead"
)

// fleetWorker is the fleet's view of one worker. Only state is shared (under
// Fleet.mu); shard and jobID belong to the worker's own loop.
type fleetWorker struct {
	name   string
	client *Client
	state  string
	shard  int    // leased shard while busy
	jobID  string // worker-local job while busy
}

func (f *Fleet) poll() time.Duration {
	if f.PollInterval > 0 {
		return f.PollInterval
	}
	return 200 * time.Millisecond
}

func (f *Fleet) maxRequeues() int {
	if f.MaxRequeues > 0 {
		return f.MaxRequeues
	}
	return 8
}

func (f *Fleet) giveUpAfter() time.Duration {
	if f.GiveUpAfter > 0 {
		return f.GiveUpAfter
	}
	return 30 * time.Second
}

func (f *Fleet) log() *slog.Logger {
	if f.Log != nil {
		return f.Log
	}
	return slog.Default()
}

func (f *Fleet) workerState(w *fleetWorker) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return w.state
}

func (f *Fleet) setWorkerState(w *fleetWorker, state string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w.state = state
}

// RegisterWorkers exposes the ruby_fleet_workers{state} gauge for a running
// fleet. Call before Run; the gauge reads the fleet's live worker table.
func (f *Fleet) RegisterWorkers(reg *obs.Registry) {
	reg.GaugeVec("ruby_fleet_workers", "Fleet workers by state.", "state", func() []obs.Sample {
		f.mu.Lock()
		counts := map[string]int{workerIdle: 0, workerBusy: 0, workerDead: 0}
		for _, w := range f.workers {
			counts[w.state]++
		}
		f.mu.Unlock()
		states := []string{workerBusy, workerDead, workerIdle} // fixed order for the exposition
		out := make([]obs.Sample, 0, len(states))
		for _, s := range states {
			out = append(out, obs.Sample{LabelValue: s, Value: float64(counts[s])})
		}
		return out
	})
}

// Run coordinates the plan to completion and returns the merged result. On
// context cancellation it persists the coordinator state (when StatePath is
// set) and returns the merge-so-far with the context's error, so a resumed
// run picks up the finished shards. Run joins every worker loop before it
// returns, so no request to a worker is left in flight.
func (f *Fleet) Run(ctx context.Context) (*Merged, error) {
	ctx, span := obs.StartSpan(ctx, "fleet:run")
	defer span.End()

	if len(f.Workers) == 0 {
		return nil, fmt.Errorf("dist: fleet has no workers")
	}
	obj, err := search.ParseObjective(f.Spec.Objective)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	f.workers = f.workers[:0]
	for _, base := range f.Workers {
		f.workers = append(f.workers, &fleetWorker{
			name:   base,
			client: &Client{Base: base, HTTP: f.HTTP},
			state:  workerIdle,
		})
	}
	workers := f.workers
	f.mu.Unlock()

	// Stopping is two-phase. Cancelling stepCtx makes each loop exit before
	// its next step but lets the request in flight finish (a long-poll ends
	// within PollInterval), so no handler is left running on a worker;
	// cancelling reqCtx then cuts any request that outlives that grace.
	stepCtx, stop := context.WithCancel(ctx)
	defer stop()
	reqCtx, abort := context.WithCancel(context.WithoutCancel(ctx))
	defer abort()
	wake := make(chan struct{}, 1)
	exited := make(chan struct{}, len(workers))
	for _, w := range workers {
		go func() {
			defer func() { exited <- struct{}{} }()
			f.workerLoop(stepCtx, reqCtx, w, obj, wake)
		}()
	}

	err = f.supervise(ctx, workers, wake)
	stop()
	grace := time.NewTimer(2 * f.poll())
	defer grace.Stop()
	for n := 0; n < len(workers); {
		select {
		case <-exited:
			n++
		case <-grace.C:
			abort()
		}
	}
	f.persist()
	return f.Coord.Merged(), err
}

// supervise runs the fleet-wide duties until the plan is done, ctx ends or
// a guard gives up: it expires stale leases, applies the poison-shard and
// dead-fleet guards and persists the state. It runs on every PollInterval
// tick and whenever a worker loop completes or fails a shard.
func (f *Fleet) supervise(ctx context.Context, workers []*fleetWorker, wake <-chan struct{}) error {
	tick := time.NewTicker(f.poll())
	defer tick.Stop()
	var allDeadSince time.Time
	for !f.Coord.Done() {
		f.Coord.ExpireLeases()

		// Poison-shard and dead-fleet guards: without them a shard that
		// fails deterministically, or a fleet that never comes back, would
		// spin forever.
		for _, sv := range f.Coord.Shards() {
			if sv.Status != ShardDone && sv.Requeues >= f.maxRequeues() {
				return fmt.Errorf("dist: shard %d re-queued %d times; giving up", sv.Shard.Index, sv.Requeues)
			}
		}
		alive := false
		for _, w := range workers {
			if f.workerState(w) != workerDead {
				alive = true
			}
		}
		switch {
		case alive:
			allDeadSince = time.Time{}
		case allDeadSince.IsZero():
			allDeadSince = time.Now()
		case time.Since(allDeadSince) > f.giveUpAfter():
			return fmt.Errorf("dist: all %d workers unreachable for %s; giving up", len(workers), f.giveUpAfter())
		}

		f.persist()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		case <-wake:
		}
	}
	return nil
}

// workerLoop drives one worker until stepCtx ends: lease, submit, long-poll
// and, on completion, lease again at once. Requests run under reqCtx, which
// outlives stepCtx by Run's stop grace. Each completion or failure wakes
// Run's supervise loop.
func (f *Fleet) workerLoop(stepCtx, reqCtx context.Context, w *fleetWorker, obj search.Objective, wake chan<- struct{}) {
	notify := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	for stepCtx.Err() == nil {
		switch f.workerState(w) {
		case workerDead:
			if w.client.Healthz(reqCtx) == nil {
				f.setWorkerState(w, workerIdle)
				f.log().Info("dist: worker revived", "worker", w.name)
				continue
			}
			sleep(stepCtx, f.poll())

		case workerIdle:
			sh, ckpt, ok := f.Coord.Lease(w.name)
			if !ok {
				sleep(stepCtx, f.poll()) // nothing pending; a lease may yet lapse
				continue
			}
			id, err := w.client.SubmitShard(reqCtx, f.Spec, sh, ckpt)
			if err != nil {
				if reqCtx.Err() != nil {
					return
				}
				f.Coord.Fail(sh.Index, w.name)
				f.setWorkerState(w, workerDead)
				obs.Event(reqCtx, "shard:requeue")
				f.log().Warn("dist: shard submit failed; worker marked dead", "worker", w.name, "shard", sh.Index, "err", err)
				notify()
				continue
			}
			w.shard, w.jobID = sh.Index, id
			f.setWorkerState(w, workerBusy)
			obs.Event(reqCtx, "shard:lease")

		case workerBusy:
			start := time.Now()
			st, err := w.client.Job(reqCtx, w.jobID, f.poll())
			if err != nil {
				if reqCtx.Err() != nil {
					return
				}
				f.Coord.Fail(w.shard, w.name)
				f.setWorkerState(w, workerDead)
				obs.Event(reqCtx, "shard:requeue")
				f.log().Warn("dist: worker lost; shard re-queued", "worker", w.name, "shard", w.shard, "err", err)
				notify()
				continue
			}
			switch st.Status {
			case "done":
				res := shardResultOf(st.Result, obj)
				f.Coord.Complete(w.shard, w.name, res)
				f.setWorkerState(w, workerIdle)
				obs.Event(reqCtx, "shard:complete")
				notify()
			case "failed":
				// The worker is healthy; the job itself failed. Re-queue (the
				// poison-shard cap in supervise bounds deterministic
				// failures).
				f.Coord.Fail(w.shard, w.name)
				f.setWorkerState(w, workerIdle)
				obs.Event(reqCtx, "shard:requeue")
				f.log().Warn("dist: shard job failed; re-queued", "worker", w.name, "shard", w.shard, "err", st.Error)
				notify()
			default: // running or interrupted (worker restarting the job)
				f.Coord.Heartbeat(w.shard, w.name)
				if ckpt, err := w.client.JobCheckpoint(reqCtx, w.jobID); err == nil && len(ckpt) > 0 {
					f.Coord.SaveCheckpoint(w.shard, w.name, ckpt)
				}
				// A worker without wait_ms, or an interrupted job, replies
				// at once: wait out the interval rather than busy-poll.
				sleep(stepCtx, f.poll()-time.Since(start))
			}
		}
	}
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// persist writes the coordinator state when a StatePath is configured.
func (f *Fleet) persist() {
	if f.StatePath == "" {
		return
	}
	if err := f.Coord.SaveState(f.StatePath, f.Spec); err != nil {
		f.log().Warn("dist: persisting coordinator state failed", "path", f.StatePath, "err", err)
	}
}

// shardResultOf converts a worker job result into a shard report. A done
// job without a mapping (JSON null) is a shard whose range holds no valid
// mapping — a result, not an error.
func shardResultOf(r *JobResult, obj search.Objective) ShardResult {
	if r == nil {
		return ShardResult{}
	}
	out := ShardResult{Evaluated: r.Evaluated, Valid: r.Valid}
	if len(r.Mapping) > 0 && string(r.Mapping) != "null" {
		out.Mapping = r.Mapping
		out.Objective = obj.Value(&r.Cost)
	}
	return out
}
