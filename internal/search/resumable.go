package search

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/obs"
)

// Searcher is a stepwise, checkpointable search; the one-shot entry points
// (Random and friends) step one to completion. A Searcher advances in
// bounded Steps between which its complete state can be captured
// (Snapshot) and later re-established in a fresh process (Restore). The
// determinism contract is strict and pinned by TestKillAndResume*: a
// search interrupted after any Step — or killed and resumed from its last
// snapshot — produces a bit-identical final incumbent, cost and evaluation
// count to an uninterrupted run, at any opt.Threads, because every
// Searcher commits its draws in a fixed order whatever evaluates them.
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
// result, under a trace span of the given name: the one-shot form of a
// resumable searcher.
func stepToDone(ctx context.Context, span string, s Searcher) *Result {
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
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

// snapshotOf starts a snapshot of the state every searcher shares: the
// algorithm, completion, the RNG (nil for the draw-free exhaustive scan),
// the counters, the trace and the incumbent.
func snapshotOf(algo string, done bool, rng *checkpoint.RNG, res *Result) (*checkpoint.SearchState, error) {
	st := &checkpoint.SearchState{
		Algo: algo, Done: done,
		Evaluated: res.Evaluated, Valid: res.Valid,
		Trace: slices.Clone(res.Trace),
	}
	if rng != nil {
		st.RNG = rng.Clone()
	}
	if res.Best != nil {
		raw, err := res.Best.Encode()
		if err != nil {
			return nil, fmt.Errorf("search: snapshot incumbent: %w", err)
		}
		c := res.BestCost.Clone()
		st.Best, st.BestCost = raw, &c
	}
	return st, nil
}

// restoreInto checks that st was written by an algo searcher and loads
// what snapshotOf wrote into rng (unless nil) and res, validating the
// incumbent against the space.
func restoreInto(st *checkpoint.SearchState, algo string, rng *checkpoint.RNG, sp *mapspace.Space, res *Result) error {
	if st.Algo != algo {
		return fmt.Errorf("search: cannot restore %q snapshot into a %s searcher", st.Algo, algo)
	}
	if rng != nil {
		if st.RNG == nil {
			return fmt.Errorf("search: %s snapshot lacks RNG state", algo)
		}
		*rng = *st.RNG
	}
	res.Evaluated, res.Valid = st.Evaluated, st.Valid
	res.Trace = slices.Clone(st.Trace)
	res.Best, res.BestCost = nil, nest.Cost{}
	m, err := decodeMapping(st.Best, sp, "incumbent")
	if err != nil || m == nil {
		return err
	}
	res.Best = m
	if st.BestCost != nil {
		res.BestCost = st.BestCost.Clone()
	}
	return nil
}

// decodeMapping decodes a snapshot's mapping JSON against the space (nil
// when the snapshot holds none); what names the mapping in the error.
func decodeMapping(raw []byte, sp *mapspace.Space, what string) (*mapping.Mapping, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	m, err := mapping.Decode(raw, sp.Work, sp.Slots())
	if err != nil {
		return nil, fmt.Errorf("search: restore %s: %w", what, err)
	}
	return m, nil
}

// improve makes m (cloned) with cost c and objective value v the incumbent,
// recording the improvement in the trace and in met.
func (r *Result) improve(m *mapping.Mapping, c *nest.Cost, v float64, met engine.Metrics) {
	r.Best, r.BestCost = m.Clone(), c.Clone()
	r.Trace = append(r.Trace, TracePoint{Evals: r.Evaluated, Value: v})
	met.Improvement(r.Evaluated, v)
}

// reportDone reports a finished search's best objective and wall time.
func reportDone(met engine.Metrics, obj Objective, res *Result, start time.Time) {
	if res.Best != nil {
		met.BestObjective(obj.Value(&res.BestCost))
	}
	met.SearchDone(time.Since(start), res.Evaluated, res.Valid) //ruby:allow determinism -- wall time feeds Metrics.SearchDone only; never enters a snapshot
}

// randomWindow is the number of draws one Step of the random searcher
// claims per goroutine, fewer when the budget left is smaller. A parallel
// Step ends at a barrier, which the window amortizes (on a 2-vCPU host,
// 256-draw windows sometimes gained nothing from a second thread); a Step
// cut off by cancellation commits nothing, so the window also bounds the
// work a cancellation discards.
const randomWindow = 512

// RandomSearcher is the paper's random-sampling search; Random steps it to
// completion. Draw k of a search (its 0-based index, Evaluated when it
// commits) samples with an RNG seeded from (opt.Seed, k), so no draw
// depends on the goroutine that makes it. Each Step opens a window of the
// next draws, and opt.Threads goroutines claim chunks of it through the
// engine batch's claim loop; each goroutine draws and evaluates its claims
// with its own sampler, mapping and RNG. The draws commit in index order as
// they complete, under a serial scan's rules: the search stops once
// opt.ConsecutiveNoImprove valid draws in a row fail to improve the
// incumbent, or at opt.MaxEvaluations, and no draw past that point is
// claimed any more. The outcome is therefore the same at any thread count,
// and a snapshot's draw position is its Evaluated count.
//
// Each draw runs under a capacity screen (mapspace.Sampler.SampleScreened):
// a draw whose drawn tiles already overflow a buffer stops there and
// commits as invalid without a cache lookup or a model call. The screen
// turns away only draws the model would reject, and draw k+1 is seeded
// afresh however much of draw k was drawn, so the answers are those of
// unscreened draws.
//
// A window slot keeps only the draw's objective value. A goroutine clones
// a draw's mapping and cost only when it beats both the committed best and
// the goroutine's earlier draws of the Step: every draw that commits as an
// improvement does.
type RandomSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	eval  *engine.Batch
	claim func(ctx context.Context, t int, w *engine.Worker, lo, hi int) bool
	draws []randomDrawer // one per goroutine
	// bar is the committed incumbent's objective value as float64 bits
	// (+Inf while there is none): no draw that fails to beat it can
	// become the incumbent.
	bar atomic.Uint64

	// The window of the current Step, committed under mu.
	mu    sync.Mutex
	base  int64        // draw index of slot 0
	vals  []float64    // each slot's objective value, NaN when invalid
	pend  [][2]int     // evaluated slot ranges [lo, hi), not yet committed
	next  int          // slots committed
	cands []randomCand // clones of draws that may commit as improvements
	gains []TracePoint // improvements committed this Step

	res       *Result
	noImprove int64
	warmed    bool
	done      bool
	start     time.Time
}

// randomDrawer is one goroutine's drawing state.
type randomDrawer struct {
	smp  *mapspace.Sampler
	m    *mapping.Mapping
	rng  checkpoint.RNG
	rnd  *rand.Rand
	best float64 // lowest objective value of this Step's draws
}

// randomCand is the clone of the draw in window slot i.
type randomCand struct {
	i int
	m *mapping.Mapping
	c nest.Cost
}

// NewRandom builds a resumable random search on opt.Threads goroutines
// (zero selects min(24, NumCPU)). The option defaults (termination
// criterion) apply as in Random. The space and the engine's evaluator must
// share their workload and architecture objects: the capacity screen reads
// the sampler's lowering with the engine's plan.
func NewRandom(sp *mapspace.Space, eng *engine.Engine, opt Options) *RandomSearcher {
	opt = opt.withDefaults()
	requireSharedContext(sp, eng)
	s := &RandomSearcher{
		sp: sp, eng: eng, opt: opt,
		eval:  eng.NewBatch(true, opt.Threads),
		draws: make([]randomDrawer, opt.Threads),
		res:   &Result{}, start: time.Now(),
	}
	s.claim = s.drawClaim
	return s
}

// Result returns the result so far.
func (s *RandomSearcher) Result() *Result { return s.res }

// Step draws, evaluates and commits one window. A Step cut off by
// cancellation commits nothing, so committed counters always describe an
// exact prefix of the draws.
func (s *RandomSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	// The warm start is evaluated before the cancellation check: a search
	// under an already-cancelled context still returns it. It draws
	// nothing.
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

	n := int64(randomWindow * len(s.draws))
	if s.opt.MaxEvaluations > 0 {
		left := s.opt.MaxEvaluations - s.res.Evaluated
		if left <= 0 {
			return s.finish(met), nil
		}
		n = min(n, left)
	}
	s.open(int(n))
	pre, preNoImprove := *s.res, s.noImprove
	s.eval.Run(ctx, int(n), s.claim)
	clear(s.cands)
	s.cands = s.cands[:0]
	if !s.done && s.next < int(n) {
		*s.res, s.noImprove = pre, preNoImprove
		return false, ctxErr(ctx)
	}
	for _, g := range s.gains {
		met.Improvement(g.Evals, g.Value)
	}
	if s.opt.KeepTrace {
		s.res.Trace = append(s.res.Trace, s.gains...)
	}
	if s.done {
		return s.finish(met), nil
	}
	return false, nil
}

// open starts a window of n draws at the next draw index.
func (s *RandomSearcher) open(n int) {
	s.base, s.next = s.res.Evaluated, 0
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	s.vals = s.vals[:n]
	s.pend, s.gains = s.pend[:0], s.gains[:0]
	bar := math.Inf(1)
	if s.res.Best != nil {
		bar = s.opt.Objective.Value(&s.res.BestCost)
	}
	s.bar.Store(math.Float64bits(bar))
	for t := range s.draws {
		s.draws[t].best = math.Inf(1)
	}
}

// drawClaim is the searcher's function for the batch's claim loop:
// goroutine t draws and evaluates the window slots [lo, hi) on w, then
// commits what it can. It stops the claim loop on cancellation and once the
// search is done.
func (s *RandomSearcher) drawClaim(ctx context.Context, t int, w *engine.Worker, lo, hi int) bool {
	if ctxErr(ctx) != nil {
		return false
	}
	d := &s.draws[t]
	if d.smp == nil {
		d.smp, d.m = s.sp.NewSampler(), &mapping.Mapping{}
		d.rnd = rand.New(&d.rng)
	}
	// Locals keep the draw loop off the cache lines that commits write.
	seed, base, vals, obj := s.opt.Seed, s.base, s.vals, s.opt.Objective
	plan := s.eng.Evaluator().Plan()
	for i := lo; i < hi; i++ {
		d.rng.SeedDraw(seed, base+int64(i))
		v := math.NaN()
		if !d.smp.SampleScreened(d.rnd, d.m, plan, w.Scratch()) {
			w.Screened()
		} else if c := w.EvaluateShared(d.m); c.Valid {
			v = obj.Value(&c)
			if v < d.best && v < math.Float64frombits(s.bar.Load()) {
				d.best = v
				cand := randomCand{i: i, m: d.m.Clone(), c: c.Clone()}
				s.mu.Lock()
				s.cands = append(s.cands, cand)
				s.mu.Unlock()
			}
		}
		vals[i] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pend = append(s.pend, [2]int{lo, hi})
	// Commit the evaluated ranges that continue the committed prefix.
	for !s.done {
		i := slices.IndexFunc(s.pend, func(r [2]int) bool { return r[0] == s.next })
		if i < 0 {
			break
		}
		hi := s.pend[i][1]
		s.pend = slices.Delete(s.pend, i, i+1)
		s.commit(hi)
	}
	return !s.done
}

// commit walks the evaluated slots from the first uncommitted one up to
// slot hi, in draw order, unless the search stops first.
//
//ruby:locked mu
func (s *RandomSearcher) commit(hi int) {
	for ; !s.done && s.next < hi; s.next++ {
		v := s.vals[s.next]
		s.res.Evaluated++
		if v == v { // NaN marks an invalid draw
			s.res.Valid++
			if v < math.Float64frombits(s.bar.Load()) {
				s.improve(s.next, v)
			} else if s.opt.ConsecutiveNoImprove > 0 {
				s.noImprove++
				s.done = s.noImprove >= s.opt.ConsecutiveNoImprove
			}
		}
		if s.opt.MaxEvaluations > 0 && s.res.Evaluated >= s.opt.MaxEvaluations {
			s.done = true
		}
	}
}

// improve makes the draw in slot i, of objective value v, the incumbent,
// taking its clone from the candidates and dropping those up to slot i.
//
//ruby:locked mu
func (s *RandomSearcher) improve(i int, v float64) {
	j := slices.IndexFunc(s.cands, func(c randomCand) bool { return c.i == i })
	s.res.Best, s.res.BestCost = s.cands[j].m, s.cands[j].c
	s.bar.Store(math.Float64bits(v))
	s.noImprove = 0
	s.gains = append(s.gains, TracePoint{Evals: s.res.Evaluated, Value: v})
	s.cands = slices.DeleteFunc(s.cands, func(c randomCand) bool { return c.i <= i })
}

func (s *RandomSearcher) finish(met engine.Metrics) bool {
	s.done = true
	reportDone(met, s.opt.Objective, s.res, s.start)
	return true
}

// Snapshot implements Searcher. It holds no RNG: the next draw's index is
// the Evaluated count.
func (s *RandomSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st, err := snapshotOf("random", s.done, nil, s.res)
	if err != nil {
		return nil, err
	}
	st.NoImprove, st.Warmed = s.noImprove, s.warmed
	return st, nil
}

// Restore implements Searcher. It rejects a random snapshot that carries
// an RNG state: such a snapshot was written when random search drew every
// mapping from one serial RNG, so its draws cannot be continued.
func (s *RandomSearcher) Restore(st *checkpoint.SearchState) error {
	if st.Algo == "random" && st.RNG != nil {
		return errors.New("search: random snapshot carries an RNG state, so it was written under the old serial draw scheme and cannot be resumed; restart the search")
	}
	if err := restoreInto(st, "random", nil, s.sp, s.res); err != nil {
		return err
	}
	s.noImprove, s.warmed, s.done = st.NoImprove, st.Warmed, st.Done
	return nil
}

// hillClimbChunk bounds the serial evaluations per Step of the resumable
// hill-climber and annealer (cancellation and checkpoint granularity).
const hillClimbChunk = 64

// Annealing schedule: the start temperature is annealStartTemp times the
// warm-up winner's objective value (a move that worsens the objective by
// that much is then accepted with probability 1/e), and it cools
// geometrically to 1/1000 of that over the annealing steps:
// opt.MaxEvaluations - opt.Warmup of them, or annealSteps when no cap is
// set.
const (
	annealStartTemp = 0.5
	annealSteps     = 20000
)

// HillClimbSearcher is the local search behind HillClimb and Anneal:
// warm-up random samples seed a walk over Move proposals from the best of
// them, and the constructor fixes the accept rule. The greedy climb
// (NewHillClimb) accepts strict improvements until patience consecutive
// proposals fail. The annealer (NewAnneal) also accepts a move that worsens
// the working mapping's objective by d, with the Metropolis probability
// exp(-d/T) under a geometrically cooled temperature T, which lets it
// escape the local optima that trap the greedy climb; it runs until its
// step budget is spent. All draws come from one serializable RNG, so
// interrupt/resume replays the exact proposal sequence.
//
// The walk runs on the incremental pipeline: moves mutate the working
// mapping in place (rejections are undone exactly) and neighbors are scored
// by the delta kernel, which recomputes only the scopes the move touches
// and is bit-identical to a full evaluation. The delta session is
// process-local state, not checkpoint state: it is re-seeded from the
// working mapping with one uncounted full evaluation on the first walk step
// after construction or Restore. The greedy climb's working mapping is
// always the incumbent, so its snapshots hold only Best; the annealer's
// drifts from the incumbent, so its snapshots add it (Cur) and the
// temperature.
type HillClimbSearcher struct {
	sp     *mapspace.Space
	eng    *engine.Engine
	opt    Options
	anneal bool // Metropolis accept rule; otherwise strict improvement

	rng *checkpoint.RNG
	rnd *rand.Rand
	wk  *engine.Worker
	smp *mapspace.Sampler
	m   *mapping.Mapping

	mut        *mapspace.Mutator
	dw         *engine.Delta
	cur        *mapping.Mapping // working mapping, mutated in place
	curVal     float64          // objective value of cur
	climbReady bool             // dw seeded with cur
	temp       float64          // annealing temperature
	cooling    float64          // per-step temperature factor

	res        *Result
	warmupLeft int
	fails      int
	done       bool
	start      time.Time
}

// NewHillClimb builds a resumable greedy hill-climb search. The warm-up
// sample count and patience come from opt.Warmup and opt.Patience (zero
// selects the defaults).
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

// NewAnneal builds a resumable simulated-annealing search: the hill-climb
// walk under the Metropolis accept rule. The warm-up sample count comes
// from opt.Warmup (zero selects the default); opt.Patience does not apply.
func NewAnneal(sp *mapspace.Space, eng *engine.Engine, opt Options) *HillClimbSearcher {
	s := NewHillClimb(sp, eng, opt)
	s.anneal = true
	if s.opt.MaxEvaluations <= 0 {
		s.opt.MaxEvaluations = int64(s.opt.Warmup) + annealSteps
	}
	if steps := s.opt.MaxEvaluations - int64(s.opt.Warmup); steps > 0 {
		s.cooling = math.Pow(1e-3, 1/float64(steps))
	}
	return s
}

// algo is the searcher's algorithm name, which tags its snapshots.
func (s *HillClimbSearcher) algo() string {
	if s.anneal {
		return "anneal"
	}
	return "hillclimb"
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
			c := s.wk.EvaluateShared(s.m)
			if c.Valid {
				s.res.Valid++
				if v := s.opt.Objective.Value(&c); s.res.Best == nil || v < s.opt.Objective.Value(&s.res.BestCost) {
					s.res.improve(s.m, &c, v, met)
				}
			}
		case s.warmupLeft > 0: // budget exhausted during warm-up
			return s.finish(met), nil
		case s.res.Best == nil: // warm-up found nothing valid to climb from
			return s.finish(met), nil
		case s.budgetLeft() && (s.anneal || s.fails < s.opt.Patience):
			s.move(met)
		default: // patience or budget exhausted
			return s.finish(met), nil
		}
	}
	return false, nil
}

// move proposes one Move on the working mapping, scores it by delta and
// keeps or undoes it under the accept rule.
func (s *HillClimbSearcher) move(met engine.Metrics) {
	if !s.climbReady {
		// Lazy (re-)seeding of the delta session: uncounted, draw-free, so
		// resumed and uninterrupted runs stay bit-identical. The walk
		// starts from the warm-up winner; a restored annealer continues
		// from its snapshot's working mapping and temperature.
		if s.cur == nil {
			s.cur = s.res.Best.Clone()
			if s.anneal {
				s.temp = annealStartTemp * s.opt.Objective.Value(&s.res.BestCost)
			}
		}
		c := s.dw.Seed(s.cur)
		s.curVal = s.opt.Objective.Value(&c)
		s.climbReady = true
	}
	mv := s.mut.Propose(s.rnd)
	mv.Apply(s.cur)
	s.res.Evaluated++
	c := s.dw.Evaluate(mv.Delta())
	if s.anneal {
		s.temp *= s.cooling
	}
	if c.Valid {
		s.res.Valid++
		v := s.opt.Objective.Value(&c)
		if v < s.opt.Objective.Value(&s.res.BestCost) {
			// The working mapping is never better than the incumbent, so
			// both accept rules keep a move that beats the incumbent.
			s.res.improve(s.cur, &c, v, met)
		}
		if s.accept(v) {
			s.dw.Commit()
			s.curVal = v
			s.fails = 0
			return
		}
	}
	s.dw.Reject()
	mv.Undo(s.cur)
	s.fails++
}

// accept applies the accept rule to a valid neighbor of objective value v.
func (s *HillClimbSearcher) accept(v float64) bool {
	if !s.anneal {
		return v < s.curVal
	}
	d := v - s.curVal
	return d <= 0 || s.rnd.Float64() < math.Exp(-d/s.temp)
}

func (s *HillClimbSearcher) finish(met engine.Metrics) bool {
	s.done = true
	reportDone(met, s.opt.Objective, s.res, s.start)
	return true
}

// Snapshot implements Searcher.
func (s *HillClimbSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st, err := snapshotOf(s.algo(), s.done, s.rng, s.res)
	if err != nil {
		return nil, err
	}
	st.WarmupLeft, st.Fails = s.warmupLeft, s.fails
	if s.anneal && s.cur != nil {
		if st.Cur, err = s.cur.Encode(); err != nil {
			return nil, fmt.Errorf("search: snapshot working mapping: %w", err)
		}
		st.Temp = s.temp
	}
	return st, nil
}

// Restore implements Searcher.
func (s *HillClimbSearcher) Restore(st *checkpoint.SearchState) error {
	if err := restoreInto(st, s.algo(), s.rng, s.sp, s.res); err != nil {
		return err
	}
	s.warmupLeft, s.fails, s.done = st.WarmupLeft, st.Fails, st.Done
	// The delta session is process-local: drop it and re-seed from the
	// working mapping (the annealer's, or else the incumbent) on the next
	// walk step.
	s.climbReady, s.temp = false, st.Temp
	var err error
	s.cur, err = decodeMapping(st.Cur, s.sp, "working mapping")
	return err
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
// enumerated mappings (0 = the whole tiling mapspace), evaluating each batch
// on opt.Threads goroutines (zero selects min(24, NumCPU)). A non-empty opt.Shard
// confines the scan to that leading-dimension chain range; an out-of-range
// shard is reported by the first Step call.
func NewExhaustive(sp *mapspace.Space, eng *engine.Engine, opt Options, maxMappings int64) *ExhaustiveSearcher {
	opt = opt.withDefaults()
	s := &ExhaustiveSearcher{
		sp: sp, eng: eng, opt: opt, maxMappings: maxMappings,
		en: sp.NewEnumerator(),
		// An enumeration never visits a mapping twice, so a memo-cache
		// lookup could never hit: the scan bypasses the cache.
		eval: eng.NewBatch(false, opt.Threads),
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
		reportDone(met, s.opt.Objective, s.res, s.start)
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
			if v := s.opt.Objective.Value(&c); s.res.Best == nil || v < s.opt.Objective.Value(&s.res.BestCost) {
				s.res.improve(s.batch[i], &c, v, met)
			}
		}
	}
	return false, nil
}

// Snapshot implements Searcher.
func (s *ExhaustiveSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st, err := snapshotOf("exhaustive", s.done, nil, s.res)
	if err != nil {
		return nil, err
	}
	st.Enumerated, st.EnumIndex, st.EnumDone = s.taken, s.en.Index(), s.en.Done()
	return st, nil
}

// Restore implements Searcher.
func (s *ExhaustiveSearcher) Restore(st *checkpoint.SearchState) error {
	if err := restoreInto(st, "exhaustive", nil, s.sp, s.res); err != nil {
		return err
	}
	if s.restrictErr != nil {
		return s.restrictErr
	}
	s.taken, s.done = st.Enumerated, st.Done
	return s.en.SetIndex(st.EnumIndex, st.EnumDone)
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
