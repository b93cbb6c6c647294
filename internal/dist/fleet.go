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
// API. The loop is a single goroutine: each tick expires stale leases,
// hands pending shards to idle workers, polls running jobs (the poll doubles
// as the lease heartbeat and collects worker-side checkpoints), re-queues
// shards of unreachable workers, and periodically persists the coordinator
// state. Because every shard's result is deterministic, the fleet's merged
// outcome does not depend on which worker ran what, or how often shards
// were re-queued.
type Fleet struct {
	Coord *Coordinator
	// Spec is the problem and base search configuration shipped with every
	// shard.
	Spec *JobSpec
	// Workers lists the worker base URLs.
	Workers []string
	// HTTP is the shared transport (nil = http.DefaultClient).
	HTTP *http.Client
	// PollInterval is the tick period (default 200ms). Keep it well below
	// the coordinator's lease TTL: polls are the heartbeat.
	PollInterval time.Duration
	// StatePath, when set, persists the coordinator state (checkpoint kind
	// "shards") every tick, so an interrupted run resumes with -resume.
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

	// mu guards the live worker table, which the run loop mutates and the
	// ruby_fleet_workers gauge closure reads at exposition time.
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

// fleetWorker is the fleet's view of one worker.
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
// run picks up the finished shards.
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

	var allDeadSince time.Time
	for !f.Coord.Done() {
		if err := ctx.Err(); err != nil {
			f.persist()
			return f.Coord.Merged(), err
		}
		f.Coord.ExpireLeases()

		alive := false
		for _, w := range workers {
			f.tickWorker(ctx, w, obj)
			if f.workerState(w) != workerDead {
				alive = true
			}
		}

		// Poison-shard and dead-fleet guards: without them a shard that
		// fails deterministically, or a fleet that never comes back, would
		// spin forever.
		for _, sv := range f.Coord.Shards() {
			if sv.Status != ShardDone && sv.Requeues >= f.maxRequeues() {
				f.persist()
				return f.Coord.Merged(), fmt.Errorf("dist: shard %d re-queued %d times; giving up", sv.Shard.Index, sv.Requeues)
			}
		}
		switch {
		case alive:
			allDeadSince = time.Time{}
		case allDeadSince.IsZero():
			allDeadSince = time.Now()
		case time.Since(allDeadSince) > f.giveUpAfter():
			f.persist()
			return f.Coord.Merged(), fmt.Errorf("dist: all %d workers unreachable for %s; giving up", len(workers), f.giveUpAfter())
		}

		f.persist()
		select {
		case <-ctx.Done():
		case <-time.After(f.poll()):
		}
	}
	f.persist()
	return f.Coord.Merged(), nil
}

// tickWorker advances one worker's state machine by one tick.
func (f *Fleet) tickWorker(ctx context.Context, w *fleetWorker, obj search.Objective) {
	switch f.workerState(w) {
	case workerDead:
		if w.client.Healthz(ctx) == nil {
			f.setWorkerState(w, workerIdle)
			f.log().Info("dist: worker revived", "worker", w.name)
		}

	case workerIdle:
		sh, ckpt, ok := f.Coord.Lease(w.name)
		if !ok {
			return
		}
		id, err := w.client.SubmitShard(ctx, f.Spec, sh, ckpt)
		if err != nil {
			f.Coord.Fail(sh.Index, w.name)
			f.setWorkerState(w, workerDead)
			obs.Event(ctx, "shard:requeue")
			f.log().Warn("dist: shard submit failed; worker marked dead", "worker", w.name, "shard", sh.Index, "err", err)
			return
		}
		w.shard, w.jobID = sh.Index, id
		f.setWorkerState(w, workerBusy)
		obs.Event(ctx, "shard:lease")

	case workerBusy:
		st, err := w.client.Job(ctx, w.jobID)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.Coord.Fail(w.shard, w.name)
			f.setWorkerState(w, workerDead)
			obs.Event(ctx, "shard:requeue")
			f.log().Warn("dist: worker lost; shard re-queued", "worker", w.name, "shard", w.shard, "err", err)
			return
		}
		switch st.Status {
		case "done":
			res := shardResultOf(st.Result, obj)
			f.Coord.Complete(w.shard, w.name, res)
			f.setWorkerState(w, workerIdle)
			obs.Event(ctx, "shard:complete")
		case "failed":
			// The worker is healthy; the job itself failed. Re-queue (the
			// poison-shard cap in Run bounds deterministic failures).
			f.Coord.Fail(w.shard, w.name)
			f.setWorkerState(w, workerIdle)
			obs.Event(ctx, "shard:requeue")
			f.log().Warn("dist: shard job failed; re-queued", "worker", w.name, "shard", w.shard, "err", st.Error)
		default: // running or interrupted (worker restarting the job)
			f.Coord.Heartbeat(w.shard, w.name)
			if ckpt, err := w.client.JobCheckpoint(ctx, w.jobID); err == nil && len(ckpt) > 0 {
				f.Coord.SaveCheckpoint(w.shard, w.name, ckpt)
			}
		}
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
