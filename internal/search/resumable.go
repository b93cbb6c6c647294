package search

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
)

// Searcher is a stepwise, checkpointable search. Unlike the one-shot entry
// points (Random and friends), a Searcher advances in bounded Steps
// between which its complete state can be captured (Snapshot) and later
// re-established in a fresh process (Restore). The determinism contract is
// strict and pinned by TestKillAndResume*: a search interrupted after any
// Step — or killed and resumed from its last snapshot — produces a
// bit-identical final incumbent, cost and evaluation count to an
// uninterrupted run, because every Searcher consumes its draw sequence in a
// fixed serial order regardless of evaluation parallelism.
type Searcher interface {
	// Step performs one bounded chunk of work. It returns done=true when
	// the search has terminated, or a non-nil error (the context's) when
	// interrupted; an interrupted searcher is left in a consistent state,
	// so Snapshot afterwards captures exactly the committed progress.
	Step(ctx context.Context) (done bool, err error)
	// Result returns the search result so far (live; do not mutate).
	Result() *Result
	// Snapshot serializes the searcher's state. Only call between Steps.
	Snapshot() (*checkpoint.SearchState, error)
	// Restore re-establishes a snapshot taken from a searcher of the same
	// algorithm over the same workload, architecture, mapspace and options.
	Restore(*checkpoint.SearchState) error
}

// stepToDone steps s until it finishes or ctx is cancelled and returns its
// result: the one-shot form of a resumable searcher.
func stepToDone(ctx context.Context, s Searcher) *Result {
	for {
		if done, err := s.Step(ctx); done || err != nil {
			return s.Result()
		}
	}
}

// ctxErr normalizes the nil-context convention shared with the one-shot
// entry points.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// encodeTrace converts the in-memory trace to its serialized form.
func encodeTrace(tps []TracePoint) []checkpoint.TracePoint {
	if len(tps) == 0 {
		return nil
	}
	out := make([]checkpoint.TracePoint, len(tps))
	for i, tp := range tps {
		out[i] = checkpoint.TracePoint{Evals: tp.Evals, Value: tp.Value}
	}
	return out
}

// decodeTrace is the inverse of encodeTrace.
func decodeTrace(tps []checkpoint.TracePoint) []TracePoint {
	if len(tps) == 0 {
		return nil
	}
	out := make([]TracePoint, len(tps))
	for i, tp := range tps {
		out[i] = TracePoint{Evals: tp.Evals, Value: tp.Value}
	}
	return out
}

// snapshotBest stores the incumbent into st.
func snapshotBest(st *checkpoint.SearchState, res *Result) error {
	if res.Best == nil {
		return nil
	}
	raw, err := res.Best.Encode()
	if err != nil {
		return fmt.Errorf("search: snapshot incumbent: %w", err)
	}
	st.Best = raw
	c := res.BestCost.Clone()
	st.BestCost = &c
	return nil
}

// restoreBest loads the incumbent from st, validating it against the space.
func restoreBest(st *checkpoint.SearchState, sp *mapspace.Space, res *Result) error {
	res.Best, res.BestCost = nil, nest.Cost{}
	if len(st.Best) == 0 {
		return nil
	}
	m, err := mapping.Decode(st.Best, sp.Work, sp.Slots())
	if err != nil {
		return fmt.Errorf("search: restore incumbent: %w", err)
	}
	res.Best = m
	if st.BestCost != nil {
		res.BestCost = st.BestCost.Clone()
	}
	return nil
}

// randomBatch is the number of sampled mappings evaluated per Step of the
// resumable random searcher. Large enough to amortize parallel dispatch,
// small enough that cancellation and checkpoints stay responsive.
const randomBatch = 256

// RandomSearcher is the checkpointable form of the paper's random-sampling
// search. Mappings are drawn serially from one serializable RNG into a
// reused batch and evaluated in parallel through one reusable engine batch,
// which keeps the engine's memo cache (random sampling does revisit
// mappings); incumbent updates and the termination criteria are applied in
// draw order, so the outcome is identical to a serial scan of the same
// sequence — independent of worker count, and reproducible across
// interrupt/resume.
type RandomSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	rng   *checkpoint.RNG
	rnd   *rand.Rand
	smp   *mapspace.Sampler
	batch []*mapping.Mapping
	eval  *engine.Batch

	res       *Result
	noImprove int64
	warmed    bool
	done      bool
	start     time.Time
}

// NewRandom builds a resumable random search. opt.Threads is ignored —
// parallelism comes from the engine's batch workers (Config.Workers) — but
// the option defaults (termination criterion) apply as in Random.
func NewRandom(sp *mapspace.Space, eng *engine.Engine, opt Options) *RandomSearcher {
	opt = opt.withDefaults()
	s := &RandomSearcher{
		sp: sp, eng: eng, opt: opt,
		rng: checkpoint.NewRNG(opt.Seed),
		smp: sp.NewSampler(), eval: eng.NewBatch(true),
		res: &Result{}, start: time.Now(),
	}
	s.rnd = rand.New(s.rng)
	s.batch = make([]*mapping.Mapping, randomBatch)
	for i := range s.batch {
		s.batch[i] = &mapping.Mapping{}
	}
	return s
}

// Result returns the result so far.
func (s *RandomSearcher) Result() *Result { return s.res }

// Step samples and evaluates one batch. On cancellation the whole batch is
// rolled back (the RNG rewinds to the batch start), so committed counters
// always describe an exact prefix of the draw sequence.
func (s *RandomSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	// The warm start is evaluated before the cancellation check, as in the
	// one-shot Random: a search under an already-cancelled context still
	// returns it. It draws nothing from the RNG.
	if !s.warmed {
		s.warmed = true
		if s.opt.WarmStart != nil {
			if c := s.eng.Evaluate(s.opt.WarmStart); c.Valid {
				s.res.Best = s.opt.WarmStart.Clone()
				s.res.BestCost = c.Clone()
				if s.opt.KeepTrace {
					s.res.Trace = append(s.res.Trace, TracePoint{Evals: 0, Value: s.opt.Objective.Value(&c)})
				}
			}
		}
	}
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	met := s.eng.Metrics()

	n := len(s.batch)
	if s.opt.MaxEvaluations > 0 {
		left := s.opt.MaxEvaluations - s.res.Evaluated
		if left <= 0 {
			return s.finish(met), nil
		}
		if int64(n) > left {
			n = int(left)
		}
	}

	// Draw the batch; remember the RNG state to roll back to on
	// cancellation (the serialized draw position must never run ahead of
	// the committed counters).
	preBatch := *s.rng
	for i := 0; i < n; i++ {
		s.smp.SampleInto(s.rnd, s.batch[i])
	}
	costs := s.eval.Evaluate(ctx, s.batch[:n])
	for i := range costs {
		if engine.Cancelled(&costs[i]) {
			*s.rng = preBatch
			return false, ctxErr(ctx)
		}
	}

	// Commit serially in draw order.
	for i := 0; i < n && !s.done; i++ {
		c := costs[i]
		s.res.Evaluated++
		if c.Valid {
			s.res.Valid++
			if s.res.Best == nil || s.opt.Objective.Value(&c) < s.opt.Objective.Value(&s.res.BestCost) {
				s.res.Best = s.batch[i].Clone()
				s.res.BestCost = c.Clone()
				s.noImprove = 0
				if s.opt.KeepTrace {
					s.res.Trace = append(s.res.Trace, TracePoint{Evals: s.res.Evaluated, Value: s.opt.Objective.Value(&c)})
				}
				met.Improvement(s.res.Evaluated, s.opt.Objective.Value(&c))
			} else if s.opt.ConsecutiveNoImprove > 0 {
				s.noImprove++
				if s.noImprove >= s.opt.ConsecutiveNoImprove {
					s.done = true
				}
			}
		}
		if s.opt.MaxEvaluations > 0 && s.res.Evaluated >= s.opt.MaxEvaluations {
			s.done = true
		}
	}
	if s.done {
		return s.finish(met), nil
	}
	return false, nil
}

func (s *RandomSearcher) finish(met engine.Metrics) bool {
	if !s.done {
		s.done = true
	}
	if s.res.Best != nil {
		met.BestObjective(s.opt.Objective.Value(&s.res.BestCost))
	}
	met.SearchDone(time.Since(s.start), s.res.Evaluated, s.res.Valid) //ruby:allow determinism -- wall time feeds Metrics.SearchDone only; never enters a snapshot
	return true
}

// Snapshot implements Searcher.
func (s *RandomSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st := &checkpoint.SearchState{
		Algo: "random", Done: s.done, RNG: s.rng.Clone(),
		Evaluated: s.res.Evaluated, Valid: s.res.Valid,
		NoImprove: s.noImprove, Warmed: s.warmed,
		Trace: encodeTrace(s.res.Trace),
	}
	if err := snapshotBest(st, s.res); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore implements Searcher.
func (s *RandomSearcher) Restore(st *checkpoint.SearchState) error {
	if st.Algo != "random" {
		return fmt.Errorf("search: cannot restore %q snapshot into a random searcher", st.Algo)
	}
	if st.RNG == nil {
		return errors.New("search: random snapshot lacks RNG state")
	}
	*s.rng = *st.RNG.Clone()
	s.res.Evaluated, s.res.Valid = st.Evaluated, st.Valid
	s.noImprove, s.warmed, s.done = st.NoImprove, st.Warmed, st.Done
	s.res.Trace = decodeTrace(st.Trace)
	return restoreBest(st, s.sp, s.res)
}

// hillClimbChunk bounds the serial evaluations per Step of the resumable
// hill-climber (cancellation and checkpoint granularity).
const hillClimbChunk = 64

// HillClimbSearcher is the hill-climb search (HillClimb steps it to
// completion): warm-up random samples seed a greedy local search that
// accepts strict improvements until patience consecutive proposals fail.
// All draws come from one serializable RNG, so interrupt/resume replays the
// exact proposal sequence.
//
// The climb phase runs on the incremental pipeline: moves mutate the
// incumbent in place (rejections are undone exactly) and neighbors are
// scored by the delta kernel, which recomputes only the scopes the move
// touches and is bit-identical to a full evaluation. The delta session
// is process-local state, not checkpoint state: it is re-seeded from the
// restored incumbent with one uncounted full evaluation on the first climb
// step after construction or Restore, so snapshots keep their historical
// schema and interrupted runs stay bit-identical to uninterrupted ones.
type HillClimbSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	rng *checkpoint.RNG
	rnd *rand.Rand
	wk  *engine.Worker
	smp *mapspace.Sampler
	m   *mapping.Mapping

	mut        *mapspace.Mutator
	dw         *engine.Delta
	cur        *mapping.Mapping // climb incumbent, mutated in place
	climbReady bool             // cur cloned from Best and dw seeded

	res        *Result
	warmupLeft int
	fails      int
	done       bool
	start      time.Time
}

// NewHillClimb builds a resumable hill-climb search. The warm-up sample
// count and patience come from opt.Warmup and opt.Patience (zero selects
// the defaults).
func NewHillClimb(sp *mapspace.Space, eng *engine.Engine, opt Options) *HillClimbSearcher {
	opt = opt.withDefaults()
	requireSharedContext(sp, eng)
	s := &HillClimbSearcher{
		sp: sp, eng: eng, opt: opt,
		rng: checkpoint.NewRNG(opt.Seed),
		wk:  eng.NewWorker(), smp: sp.NewSampler(),
		m:   &mapping.Mapping{},
		mut: sp.NewMutator(), dw: eng.NewDelta(),
		res: &Result{}, warmupLeft: opt.Warmup, start: time.Now(),
	}
	s.rnd = rand.New(s.rng)
	return s
}

// Result returns the result so far.
func (s *HillClimbSearcher) Result() *Result { return s.res }

// budgetLeft reports whether the evaluation budget allows another
// evaluation (the context is checked by Step).
func (s *HillClimbSearcher) budgetLeft() bool {
	return s.opt.MaxEvaluations <= 0 || s.res.Evaluated < s.opt.MaxEvaluations
}

// Step runs up to hillClimbChunk serial evaluations. The state is consistent
// after every evaluation, so cancellation between evaluations never needs a
// rollback.
func (s *HillClimbSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	met := s.eng.Metrics()
	for iter := 0; iter < hillClimbChunk; iter++ {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		switch {
		case s.warmupLeft > 0 && s.budgetLeft():
			s.warmupLeft--
			s.res.Evaluated++
			s.smp.SampleInto(s.rnd, s.m)
			c := s.wk.Evaluate(s.m)
			if c.Valid {
				s.res.Valid++
				if s.res.Best == nil || s.opt.Objective.Value(&c) < s.opt.Objective.Value(&s.res.BestCost) {
					s.res.Best, s.res.BestCost = s.m.Clone(), c.Clone()
					s.res.Trace = append(s.res.Trace, TracePoint{Evals: s.res.Evaluated, Value: s.opt.Objective.Value(&c)})
					met.Improvement(s.res.Evaluated, s.opt.Objective.Value(&c))
				}
			}
		case s.warmupLeft > 0: // budget exhausted during warm-up
			return s.finish(met), nil
		case s.res.Best == nil: // warm-up found nothing valid to climb from
			return s.finish(met), nil
		case s.fails < s.opt.Patience && s.budgetLeft():
			if !s.climbReady {
				// Lazy (re-)seeding of the delta session: uncounted, draw-free,
				// so resumed and uninterrupted runs stay bit-identical.
				s.cur = s.res.Best.Clone()
				s.dw.Seed(s.cur)
				s.climbReady = true
			}
			mv := s.mut.Propose(s.rnd)
			mv.Apply(s.cur)
			s.res.Evaluated++
			c := s.dw.Evaluate(mv.Delta())
			if c.Valid {
				s.res.Valid++
				if s.opt.Objective.Value(&c) < s.opt.Objective.Value(&s.res.BestCost) {
					s.dw.Commit()
					s.res.Best, s.res.BestCost = s.cur.Clone(), c.Clone()
					s.res.Trace = append(s.res.Trace, TracePoint{Evals: s.res.Evaluated, Value: s.opt.Objective.Value(&c)})
					met.Improvement(s.res.Evaluated, s.opt.Objective.Value(&c))
					s.fails = 0
					continue
				}
			}
			s.dw.Reject()
			mv.Undo(s.cur)
			s.fails++
		default: // patience or budget exhausted
			return s.finish(met), nil
		}
	}
	return false, nil
}

func (s *HillClimbSearcher) finish(met engine.Metrics) bool {
	s.done = true
	if s.res.Best != nil {
		met.BestObjective(s.opt.Objective.Value(&s.res.BestCost))
	}
	met.SearchDone(time.Since(s.start), s.res.Evaluated, s.res.Valid) //ruby:allow determinism -- wall time feeds Metrics.SearchDone only; never enters a snapshot
	return true
}

// Snapshot implements Searcher.
func (s *HillClimbSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st := &checkpoint.SearchState{
		Algo: "hillclimb", Done: s.done, RNG: s.rng.Clone(),
		Evaluated: s.res.Evaluated, Valid: s.res.Valid,
		WarmupLeft: s.warmupLeft, Fails: s.fails,
		Trace: encodeTrace(s.res.Trace),
	}
	if err := snapshotBest(st, s.res); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore implements Searcher.
func (s *HillClimbSearcher) Restore(st *checkpoint.SearchState) error {
	if st.Algo != "hillclimb" {
		return fmt.Errorf("search: cannot restore %q snapshot into a hill-climb searcher", st.Algo)
	}
	if st.RNG == nil {
		return errors.New("search: hill-climb snapshot lacks RNG state")
	}
	*s.rng = *st.RNG.Clone()
	s.res.Evaluated, s.res.Valid = st.Evaluated, st.Valid
	s.warmupLeft, s.fails, s.done = st.WarmupLeft, st.Fails, st.Done
	s.res.Trace = decodeTrace(st.Trace)
	// The delta session is process-local: drop it and re-seed from the
	// restored incumbent on the next climb step.
	s.cur, s.climbReady = nil, false
	return restoreBest(st, s.sp, s.res)
}

// exhaustiveBatch is the number of enumerated mappings evaluated per Step
// of the exhaustive searcher. Large enough to amortize parallel dispatch,
// small enough that cancellation and the maxMappings cap stay responsive.
const exhaustiveBatch = 256

// ExhaustiveSearcher is the exhaustive scan (Exhaustive steps it to
// completion): the deterministic enumeration is evaluated in parallel
// batches while incumbents are selected serially in enumeration order, and
// the enumerator's odometer position is part of the snapshot, so a resumed
// scan continues where it stopped without re-scanning the prefix.
//
// The scan evaluates in place: the enumerator rewrites one batch of reused
// mappings (NextInto), and one reusable engine batch evaluates them into
// its own result storage, bypassing the memo cache. Only an improvement
// allocates, to detach the new incumbent from the reused storage.
type ExhaustiveSearcher struct {
	sp          *mapspace.Space
	eng         *engine.Engine
	opt         Options
	maxMappings int64

	en    *mapspace.Enumerator
	batch []*mapping.Mapping // grown to exhaustiveBatch, rewritten in place
	eval  *engine.Batch

	res         *Result
	taken       int64
	done        bool
	start       time.Time
	restrictErr error // deferred opt.Shard failure, surfaced by Step
}

// NewExhaustive builds a resumable exhaustive search over up to maxMappings
// enumerated mappings (0 = the whole tiling mapspace). A non-empty opt.Shard
// confines the scan to that leading-dimension chain range; an out-of-range
// shard is reported by the first Step call.
func NewExhaustive(sp *mapspace.Space, eng *engine.Engine, opt Options, maxMappings int64) *ExhaustiveSearcher {
	s := &ExhaustiveSearcher{
		sp: sp, eng: eng, opt: opt, maxMappings: maxMappings,
		en: sp.NewEnumerator(),
		// An enumeration never visits a mapping twice, so a memo-cache
		// lookup could never hit: the scan bypasses the cache.
		eval: eng.NewBatch(false),
		res:  &Result{}, start: time.Now(),
	}
	if !opt.Shard.Empty() {
		s.restrictErr = s.en.RestrictLeading(opt.Shard.Lo, opt.Shard.Hi)
	}
	return s
}

// Result returns the result so far.
func (s *ExhaustiveSearcher) Result() *Result { return s.res }

// Step evaluates one enumeration batch. On cancellation the batch is rolled
// back (the enumerator rewinds), so the snapshot position always matches the
// committed counters.
func (s *ExhaustiveSearcher) Step(ctx context.Context) (bool, error) {
	if s.restrictErr != nil {
		return false, s.restrictErr
	}
	if s.done {
		return true, nil
	}
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	met := s.eng.Metrics()

	preIdx, preDone := s.en.Index(), s.en.Done()
	preTaken := s.taken
	n := 0
	for n < exhaustiveBatch {
		if s.maxMappings > 0 && s.taken >= s.maxMappings {
			break
		}
		if n == len(s.batch) {
			s.batch = append(s.batch, &mapping.Mapping{})
		}
		if !s.en.NextInto(s.batch[n]) {
			break
		}
		n++
		s.taken++
	}
	if n == 0 {
		s.done = true
		if s.res.Best != nil {
			met.BestObjective(s.opt.Objective.Value(&s.res.BestCost))
		}
		met.SearchDone(time.Since(s.start), s.res.Evaluated, s.res.Valid) //ruby:allow determinism -- wall time feeds Metrics.SearchDone only; never enters a snapshot
		return true, nil
	}

	costs := s.eval.Evaluate(ctx, s.batch[:n])
	for i := range costs {
		if engine.Cancelled(&costs[i]) {
			// Roll the enumeration back to the batch start; the next Step
			// rewrites the reused mappings.
			if err := s.en.SetIndex(preIdx, preDone); err != nil {
				return false, err
			}
			s.taken = preTaken
			return false, ctxErr(ctx)
		}
	}

	for i := range costs {
		c := costs[i]
		s.res.Evaluated++
		if c.Valid {
			s.res.Valid++
			if s.res.Best == nil || s.opt.Objective.Value(&c) < s.opt.Objective.Value(&s.res.BestCost) {
				s.res.Best = s.batch[i].Clone()
				s.res.BestCost = c.Clone()
				s.res.Trace = append(s.res.Trace, TracePoint{Evals: s.res.Evaluated, Value: s.opt.Objective.Value(&c)})
				met.Improvement(s.res.Evaluated, s.opt.Objective.Value(&c))
			}
		}
	}
	return false, nil
}

// Snapshot implements Searcher.
func (s *ExhaustiveSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st := &checkpoint.SearchState{
		Algo: "exhaustive", Done: s.done,
		Evaluated: s.res.Evaluated, Valid: s.res.Valid,
		Enumerated: s.taken, EnumIndex: s.en.Index(), EnumDone: s.en.Done(),
		Trace: encodeTrace(s.res.Trace),
	}
	if err := snapshotBest(st, s.res); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore implements Searcher.
func (s *ExhaustiveSearcher) Restore(st *checkpoint.SearchState) error {
	if st.Algo != "exhaustive" {
		return fmt.Errorf("search: cannot restore %q snapshot into an exhaustive searcher", st.Algo)
	}
	if s.restrictErr != nil {
		return s.restrictErr
	}
	if err := s.en.SetIndex(st.EnumIndex, st.EnumDone); err != nil {
		return err
	}
	s.res.Evaluated, s.res.Valid = st.Evaluated, st.Valid
	s.taken, s.done = st.Enumerated, st.Done
	s.res.Trace = decodeTrace(st.Trace)
	return restoreBest(st, s.sp, s.res)
}

// CheckpointConfig configures RunCheckpointed's snapshot persistence.
type CheckpointConfig struct {
	// Path is the checkpoint file. Empty disables persistence (the search
	// still runs stepwise and honors cancellation).
	Path string
	// Interval is the minimum wall time between periodic snapshots
	// (default 2s). A final snapshot is always written on completion and on
	// interruption, regardless of the interval.
	Interval time.Duration
}

func (cc CheckpointConfig) interval() time.Duration {
	if cc.Interval <= 0 {
		return 2 * time.Second
	}
	return cc.Interval
}

// RunCheckpointed drives a Searcher to completion, writing periodic
// crash-safe snapshots and — on cancellation — draining the in-flight step
// and writing a final snapshot before returning the best-so-far result with
// the context's error. A completed run writes a final snapshot marked done,
// so resuming a finished search is a no-op. This is the entry point behind
// the CLI tools' -checkpoint/-resume flags and the server's job runner.
func RunCheckpointed(ctx context.Context, s Searcher, cc CheckpointConfig) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "search:checkpointed")
	defer span.End()
	last := time.Now()
	for {
		done, err := s.Step(ctx)
		if err != nil {
			if serr := saveSnapshot(ctx, s, cc); serr != nil {
				return s.Result(), errors.Join(err, serr)
			}
			return s.Result(), err
		}
		if done {
			return s.Result(), saveSnapshot(ctx, s, cc)
		}
		if cc.Path != "" && time.Since(last) >= cc.interval() {
			if err := saveSnapshot(ctx, s, cc); err != nil {
				return s.Result(), err
			}
			last = time.Now()
		}
	}
}

func saveSnapshot(ctx context.Context, s Searcher, cc CheckpointConfig) error {
	if cc.Path == "" {
		return nil
	}
	st, err := s.Snapshot()
	if err != nil {
		return err
	}
	obs.Event(ctx, "checkpoint:save")
	return checkpoint.Save(cc.Path, checkpoint.KindSearch, st)
}

// RestoreFromFile loads the checkpoint at path into s. It returns
// (false, nil) when no file exists — callers treat that as a fresh start —
// and an error when the file exists but cannot be restored (wrong algorithm,
// wrong workload, corrupt contents). A successful restore is recorded as a
// "checkpoint:resume" trace event when ctx carries an obs.Recorder.
func RestoreFromFile(ctx context.Context, s Searcher, path string) (bool, error) {
	var st checkpoint.SearchState
	err := checkpoint.Load(path, checkpoint.KindSearch, &st)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := s.Restore(&st); err != nil {
		return false, err
	}
	obs.Event(ctx, "checkpoint:resume")
	return true, nil
}
