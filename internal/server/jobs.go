package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/config"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/obs"
	"ruby/internal/search"
)

// Job statuses. A job is "running" from submission until it terminates;
// "interrupted" marks jobs parked by a graceful shutdown (they resume on the
// next startup); "done" and "failed" are terminal.
const (
	JobRunning     = "running"
	JobInterrupted = "interrupted"
	JobDone        = "done"
	JobFailed      = "failed"
)

// Options configures a Service.
type Options struct {
	// StateDir persists job records and search checkpoints, so submitted
	// jobs survive a server restart: finished jobs stay listable, and
	// interrupted ones resume automatically. Empty keeps jobs in memory
	// only.
	StateDir string
	// SlowEval and SlowSearch, when positive, emit structured warning logs
	// (log/slog) for sampled evaluations and completed searches slower than
	// the threshold. Zero disables the respective log.
	SlowEval   time.Duration
	SlowSearch time.Duration
	// DefaultSearch is the algorithm used for requests that leave their
	// "search" field empty (one of search.Algorithms; "" = random). Jobs
	// additionally require a resumable algorithm.
	DefaultSearch string
	// Log receives the slow-event records (nil = slog.Default()).
	Log *slog.Logger
}

// Service is the mapper service with lifecycle control: the http.Handler
// plus the job manager behind the async /v1/jobs endpoints. Build it with
// NewService; use New/NewWithMetrics when job persistence and graceful
// shutdown are not needed.
type Service struct {
	handler http.Handler
	svc     *service
	jobs    *jobManager
}

// NewService builds the service. When opts.StateDir is set, persisted job
// records are loaded back: finished jobs become listable again and
// interrupted ones are restarted from their search checkpoints.
func NewService(opts Options) (*Service, error) {
	ins := engine.NewInstruments()
	if opts.SlowEval > 0 || opts.SlowSearch > 0 {
		ins.Slow = &obs.SlowLog{
			Logger:          opts.Log,
			EvalThreshold:   opts.SlowEval,
			SearchThreshold: opts.SlowSearch,
		}
	}
	s := &service{ins: ins, reg: obs.NewRegistry(), defaultSearch: opts.DefaultSearch}
	ins.Register(s.reg)
	jm, err := newJobManager(opts.StateDir, s)
	if err != nil {
		return nil, err
	}
	s.jobs = jm
	s.reg.GaugeVec("ruby_jobs", "Number of search jobs by status.", "status", jm.statusSamples)
	srv := &Service{handler: s.mux(), svc: s, jobs: jm}
	jm.resumeLoaded()
	return srv, nil
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Counters exposes the pipeline counters reported at /v1/metrics.
func (s *Service) Counters() *engine.Counters { return s.svc.ins.Counters }

// Registry exposes the Prometheus-text metric registry behind /v1/metrics,
// so embedders can add their own gauges to the same exposition.
func (s *Service) Registry() *obs.Registry { return s.svc.reg }

// Shutdown drains the job workers: running searches are cancelled, their
// final checkpoints written, and their records marked interrupted, so a
// subsequent NewService on the same state directory resumes them. It returns
// ctx's error when the drain does not finish in time.
func (s *Service) Shutdown(ctx context.Context) error { return s.jobs.shutdown(ctx) }

// jobRecord is a job's persisted state (checkpoint kind "job").
//
//ruby:serialstable
type jobRecord struct {
	ID          string               `json:"id"`
	Status      string               `json:"status"`
	Request     config.SearchRequest `json:"request"`
	SubmittedAt time.Time            `json:"submitted_at"`
	FinishedAt  *time.Time           `json:"finished_at,omitempty"`
	// Result is set for done jobs; Error for failed ones.
	Result *searchResponse `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// jobManager owns the async search jobs: submission, the worker goroutines,
// persistence, restart recovery and the drain protocol.
type jobManager struct {
	dir string // "" = in-memory only
	svc *service

	//ruby:guards jobs,nextID,draining,running
	mu     sync.Mutex
	jobs   map[string]*jobRecord
	nextID int
	// running holds one channel per running job; the job's goroutine
	// closes it when the job leaves "running", which releases every
	// GET /v1/jobs/{id}?wait_ms=N waiting on it.
	running map[string]chan struct{}

	wg       sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc
	draining bool
}

//ruby:ctxroot
func newJobManager(dir string, svc *service) (*jobManager, error) {
	ctx, cancel := context.WithCancel(context.Background())
	jm := &jobManager{
		dir: dir, svc: svc, baseCtx: ctx, cancel: cancel,
		jobs: make(map[string]*jobRecord), running: make(map[string]chan struct{}),
	}
	if dir == "" {
		return jm, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".search.json") {
			continue
		}
		var rec jobRecord
		if err := checkpoint.Load(filepath.Join(dir, name), checkpoint.KindJob, &rec); err != nil {
			return nil, fmt.Errorf("server: job record %s: %w", name, err)
		}
		jm.jobs[rec.ID] = &rec
		var n int
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n >= jm.nextID {
			jm.nextID = n + 1
		}
	}
	return jm, nil
}

// resumeLoaded restarts the jobs a previous process left unfinished. Called
// once after construction (not in newJobManager, so the handler wiring is
// complete before workers run).
func (jm *jobManager) resumeLoaded() {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, rec := range jm.jobs {
		if rec.Status == JobRunning || rec.Status == JobInterrupted {
			rec.Status = JobRunning
			jm.startLocked(rec)
		}
	}
}

func (jm *jobManager) recordPath(id string) string {
	return filepath.Join(jm.dir, "job-"+id+".json")
}

func (jm *jobManager) searchPath(id string) string {
	if jm.dir == "" {
		return ""
	}
	return filepath.Join(jm.dir, "job-"+id+".search.json")
}

// persistLocked writes a record; jm.mu must be held.
func (jm *jobManager) persistLocked(rec *jobRecord) error {
	if jm.dir == "" {
		return nil
	}
	return checkpoint.Save(jm.recordPath(rec.ID), checkpoint.KindJob, rec)
}

// resolveJobSearch applies the server's default algorithm and checks the
// result is a checkpoint-resumable one: jobs must survive a restart
// bit-identically, so the non-resumable searchers are rejected at
// submission rather than failing the job later. The default is resolved
// now so the persisted record names the algorithm its checkpoints were
// written with.
func (s *service) resolveJobSearch(name string) (string, error) {
	if name == "" {
		name = s.defaultSearch
	}
	if name == "" {
		return "", nil
	}
	if slices.Contains(search.ResumableAlgorithms, name) {
		return name, nil
	}
	return "", fmt.Errorf("server: job search %q is not resumable (want one of %s)",
		name, strings.Join(search.ResumableAlgorithms, "|"))
}

// submit registers and starts a new job; the request's algorithm has been
// resolved and validated by the handler. It returns a copy of the record
// taken under the lock, as get does: the job's goroutine may update the
// record as soon as the lock is released.
func (jm *jobManager) submit(req config.SearchRequest) (*jobRecord, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.draining {
		return nil, errors.New("server: shutting down")
	}
	rec := &jobRecord{
		ID:          fmt.Sprintf("j%04d", jm.nextID),
		Status:      JobRunning,
		Request:     req,
		SubmittedAt: time.Now().UTC(),
	}
	jm.nextID++
	jm.jobs[rec.ID] = rec
	if err := jm.persistLocked(rec); err != nil {
		delete(jm.jobs, rec.ID)
		return nil, err
	}
	jm.startLocked(rec)
	c := *rec
	return &c, nil
}

// startLocked launches the worker goroutine; jm.mu must be held.
func (jm *jobManager) startLocked(rec *jobRecord) {
	jm.wg.Add(1)
	id := rec.ID
	jm.running[id] = make(chan struct{})
	//ruby:detached run derives its context from jm.baseCtx internally; jm.cancel reaches it
	go func() {
		defer jm.wg.Done()
		jm.run(id)
	}()
}

// run executes one job to completion (or interruption), updating and
// persisting its record.
func (jm *jobManager) run(id string) {
	jm.mu.Lock()
	rec := jm.jobs[id]
	req := rec.Request
	jm.mu.Unlock()

	finish := func(status string, result *searchResponse, err error) {
		now := time.Now().UTC()
		jm.mu.Lock()
		defer jm.mu.Unlock()
		rec.Status = status
		rec.Result = result
		if err != nil {
			rec.Error = err.Error()
		}
		if status == JobDone || status == JobFailed {
			rec.FinishedAt = &now
		}
		_ = jm.persistLocked(rec)
		close(jm.running[id])
		delete(jm.running, id)
	}

	ev, sp, err := req.Resolve()
	if err != nil {
		finish(JobFailed, nil, err)
		return
	}
	obj, err := search.ParseObjective(req.Objective)
	if err != nil {
		finish(JobFailed, nil, err)
		return
	}
	opt := search.Options{
		Seed:                 req.Seed,
		Threads:              req.Threads,
		MaxEvaluations:       req.MaxEvaluations,
		ConsecutiveNoImprove: req.NoImprove,
		Objective:            obj,
	}
	if req.Shard != nil {
		// A shard job is exact: the coordinator owns the budget split, so
		// no server-side default cap may truncate the shard's work (an
		// uncapped exhaustive shard must scan its whole range).
		opt.Shard = mapspace.ChainRange{Lo: req.Shard.ChainLo, Hi: req.Shard.ChainHi}
	} else if opt.MaxEvaluations <= 0 && opt.ConsecutiveNoImprove <= 0 {
		opt.MaxEvaluations = 50000
	}

	ctx := jm.baseCtx
	sr, err := search.NewSearcherFor(req.Search, sp, jm.svc.engineFor(ev), opt, 0)
	if err != nil {
		finish(JobFailed, nil, err)
		return
	}
	restored, err := search.RestoreFromFile(ctx, sr, jm.searchPath(id))
	if err != nil {
		finish(JobFailed, nil, err)
		return
	}
	if !restored && len(req.Resume) > 0 {
		// Coordinator-held snapshot: a re-queued shard continues where the
		// lost worker last checkpointed (work-saving only — the shard
		// result is identical from any starting snapshot).
		var st checkpoint.SearchState
		if err := json.Unmarshal(req.Resume, &st); err != nil {
			finish(JobFailed, nil, fmt.Errorf("server: resume snapshot: %w", err))
			return
		}
		if err := sr.Restore(&st); err != nil {
			finish(JobFailed, nil, err)
			return
		}
	}
	res, err := search.RunCheckpointed(ctx, sr, search.CheckpointConfig{Path: jm.searchPath(id)})
	if err != nil {
		// Drain: park the job for the next process. Any other error on a
		// non-draining run is a real failure.
		if errors.Is(err, context.Canceled) && jm.baseCtx.Err() != nil {
			finish(JobInterrupted, nil, nil)
		} else {
			finish(JobFailed, nil, err)
		}
		return
	}
	if res.Best == nil {
		if req.Shard != nil {
			// An exhausted shard with no valid mapping is a result, not a
			// failure: the coordinator merges the honest counters and a
			// null mapping.
			finish(JobDone, &searchResponse{Evaluated: res.Evaluated, Valid: res.Valid}, nil)
			return
		}
		finish(JobFailed, nil, fmt.Errorf("no valid mapping found after %d samples", res.Evaluated))
		return
	}
	finish(JobDone, &searchResponse{
		mappingResult: mappingResult{
			Mapping: res.Best, Cost: res.BestCost,
			LoopNest: res.Best.Render(ev.Work, ev.Arch),
		},
		Evaluated: res.Evaluated, Valid: res.Valid,
	}, nil)
}

// isDraining reports whether a graceful shutdown has begun.
func (jm *jobManager) isDraining() bool {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.draining
}

// shutdown implements the drain protocol.
func (jm *jobManager) shutdown(ctx context.Context) error {
	jm.mu.Lock()
	jm.draining = true
	jm.mu.Unlock()
	jm.cancel()
	done := make(chan struct{})
	//ruby:detached wg.Wait watchdog; bounded by the ctx select below and jm.cancel above
	go func() {
		jm.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// list returns records sorted by ID.
func (jm *jobManager) list() []*jobRecord {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	out := make([]*jobRecord, 0, len(jm.jobs))
	for _, rec := range jm.jobs {
		c := *rec
		out = append(out, &c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// statusSamples reports the job count per status for the metrics exposition.
// All four statuses are always present, so scrape series stay continuous.
func (jm *jobManager) statusSamples() []obs.Sample {
	counts := map[string]int{JobRunning: 0, JobInterrupted: 0, JobDone: 0, JobFailed: 0}
	jm.mu.Lock()
	for _, rec := range jm.jobs {
		counts[rec.Status]++
	}
	jm.mu.Unlock()
	out := make([]obs.Sample, 0, len(counts))
	for status, n := range counts {
		out = append(out, obs.Sample{LabelValue: status, Value: float64(n)})
	}
	return out
}

// get returns a copy of one record.
func (jm *jobManager) get(id string) (*jobRecord, bool) {
	rec, _, ok := jm.lookup(id)
	return rec, ok
}

// lookup returns a copy of one record and, while the job runs, the channel
// its goroutine closes when the job leaves "running" (nil otherwise).
func (jm *jobManager) lookup(id string) (*jobRecord, <-chan struct{}, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	rec, ok := jm.jobs[id]
	if !ok {
		return nil, nil, false
	}
	c := *rec
	return &c, jm.running[id], true
}

// wait returns a copy of job id's record once the job leaves "running", d
// passes or ctx ends, whichever comes first. A job that is not running
// (or d <= 0) returns at once.
func (jm *jobManager) wait(ctx context.Context, id string, d time.Duration) (*jobRecord, bool) {
	rec, done, ok := jm.lookup(id)
	if !ok || done == nil || d <= 0 {
		return rec, ok
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
	}
	return jm.get(id)
}

// maxJobWait caps GET /v1/jobs/{id}?wait_ms=N; larger values wait this long.
const maxJobWait = time.Minute

// parseWait reads the wait_ms query parameter: absent means no wait, and a
// value above maxJobWait is capped.
func parseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if errors.Is(err, strconv.ErrRange) && ms > 0 {
		return maxJobWait, nil // too large even for an int64
	}
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("wait_ms %q is not a non-negative integer", v)
	}
	if ms > maxJobWait.Milliseconds() {
		return maxJobWait, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (s *service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req config.SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	// Fail malformed problems fast, before accepting the job.
	if _, _, err := req.Resolve(); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	if _, err := search.ParseObjective(req.Objective); err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	algo, err := s.resolveJobSearch(req.Search)
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	req.Search = algo
	rec, err := s.jobs.submit(req)
	if err != nil {
		writeErr(w, CodeUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": rec.ID, "status": rec.Status})
}

func (s *service) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

// handleJobGet serves one job's record. With ?wait_ms=N it long-polls: the
// reply is held until the job leaves "running", N ms pass or the client
// goes away.
func (s *service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query().Get("wait_ms"))
	if err != nil {
		writeErr(w, CodeInvalidRequest, err)
		return
	}
	rec, ok := s.jobs.wait(r.Context(), r.PathValue("id"), wait)
	if !ok {
		writeErr(w, CodeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleJobCheckpoint serves a job's latest persisted search snapshot (the
// checkpoint SearchState payload). The distributed coordinator polls it so
// a re-queued shard can resume from the lost worker's last progress. 404
// when the job is unknown, the server runs without a state directory, or
// the job has not checkpointed yet.
func (s *service) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.get(id); !ok {
		writeErr(w, CodeNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	path := s.jobs.searchPath(id)
	if path == "" {
		writeErr(w, CodeNotFound, fmt.Errorf("job %s has no checkpoint (no state directory)", id))
		return
	}
	var st checkpoint.SearchState
	err := checkpoint.Load(path, checkpoint.KindSearch, &st)
	if errors.Is(err, fs.ErrNotExist) {
		writeErr(w, CodeNotFound, fmt.Errorf("job %s has not checkpointed yet", id))
		return
	}
	if err != nil {
		writeErr(w, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, &st)
}
