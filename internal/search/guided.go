package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// Guided tuning knobs. They are compile-time constants, not Options: the
// searcher's value is converging in thousands of evaluations without
// per-problem tuning, and the determinism contract (kill-and-resume
// bit-identical) is easiest to keep when the sweep shape is fixed.
const (
	// Chain candidates per sweep for the dims the attribution ranks first,
	// mid-table and last. Spending draws where the model says the cost lives
	// is the point of the guided scan.
	guidedHeadCands = 10
	guidedMidCands  = 5
	guidedTailCands = 3
	// Dimensions whose whole chain space is at most this large are scanned
	// exhaustively per sweep (exact coordinate descent, FactorFlow-style)
	// instead of by random candidate draws. The lists are precomputed at
	// construction, so the scan itself stays allocation-free.
	guidedExactChainCap = 256
	// Loop-order candidates per level per sweep (skipped under FixedPerms,
	// where the only legal order is the canonical one).
	guidedPermCands = 2
	// Random fallback samples per Step while looking for a valid foothold
	// when the constructive seed is invalid.
	guidedSeedBatch = 64
	// Spatial-assignment seeds are enumerated exhaustively while the number
	// of injective dim-to-parFor assignments stays at most this large;
	// beyond it the seeding turns greedy (one slot at a time).
	guidedSeedAssignCap = 64
	// Kick strength: random moves committed onto the incumbent at each
	// restart, cycling from 2 up to guidedPerturbMax as restarts keep
	// failing (basin hopping — short kicks explore the near basin, long
	// kicks jump out of it).
	guidedPerturbMin = 2
	guidedPerturbMax = 5
	// Every guidedDiversifyEvery-th stale restart abandons the incumbent's
	// basin entirely and descends from a fresh random sample instead.
	guidedDiversifyEvery = 3
	// Consecutive restarts without a new global best before the search
	// concludes the space is exhausted around the incumbent and stops.
	guidedStalePatience = 8
)

// Phases of the guided search, persisted in snapshots.
const (
	guidedPhaseSeed  = "seed"
	guidedPhaseSweep = "sweep"
)

// Kinds of scan winner, used to replay the winning proposal.
const (
	guidedKindChain = iota
	guidedKindChainExact
	guidedKindPerm
	guidedKindKeep
)

// guidedWinner remembers the best improving proposal of one sweep: what to
// re-propose (kind plus its dim/level/pair argument, and for exact chain
// scans the chain index) and the RNG state to rewind to so a drawn
// re-proposal reproduces the scanned candidate draw for draw.
type guidedWinner struct {
	kind int
	arg  int
	arg2 int
	val  float64
	pre  checkpoint.RNG
}

// GuidedSearcher is the model-guided greedy mapper (FactorFlow-style): a
// three-phase optimizer that uses the cost model's own attribution
// (nest.Plan.Attribute) to decide where to search next, converging in
// thousands of evaluations where the stochastic searchers need hundreds of
// thousands.
//
// Phase 1 (constructive seed) starts from the trivially valid mapping that
// parks every loop at DRAM (mapping.Uniform level 0 — tiles below are
// single elements, so capacity can only pass), then enumerates
// spatially-saturating variants of it — every injective assignment of
// workload dims to parFor slots, each assigned dim spatialized by its
// largest divisor fitting the fanout. Which dims own the array is the most
// coupled choice in the space (single-dim descent cannot swap two dims
// across a saturated fanout), so it is decided up front by construction.
// When an exotic architecture rejects every constructive seed, the phase
// falls back to random sampling. Phase 2 (greedy descent) repeatedly sweeps
// the move neighborhood in groups: the cost attribution ranks the workload
// dims by how much energy-latency their loops account for, each dim group
// scans chain candidates (exactly when the dim's chain space is small,
// by random draws otherwise, spending more draws on the expensive dims),
// then loop-order groups per level and every bypass toggle; each group's
// best improving proposal is committed before the next group is scanned.
// A fully stalled sweep gets one spatial rescue before restarting: coupled
// two-dim splits of each spatial slot's fanout, the one neighborhood the
// single-dim move vocabulary cannot reach.
// Phase 3 (perturbation restart) fires when a sweep finds no improving
// move: the incumbent is re-seeded and a few random moves are committed
// onto it to escape the local optimum (every guidedDiversifyEvery-th stale
// restart instead descends from the best of a fresh random batch); after
// guidedStalePatience consecutive restarts without a new global best the
// search stops.
//
// All draws come from one serializable RNG consumed in a fixed serial order,
// and one Step is one atomic unit (a seed attempt, one full sweep, or one
// restart), so interrupt/resume is bit-identical to an uninterrupted run.
// The working mapping diverges from the incumbent after a perturbation, so
// snapshots persist both.
type GuidedSearcher struct {
	sp  *mapspace.Space
	eng *engine.Engine
	opt Options

	rng *checkpoint.RNG
	rnd *rand.Rand
	wk  *engine.Worker
	smp *mapspace.Sampler
	mut *mapspace.Mutator
	dw  *engine.Delta
	bd  *nest.Breakdown
	m   *mapping.Mapping // reused fallback-sample buffer
	gm  engine.GuidedMetrics

	cur        *mapping.Mapping // working mapping, mutated in place
	curVal     float64          // objective value of cur
	sweepReady bool             // dw seeded with cur

	// Sweep scratch: dim ranking, the winning proposal, and — for dims with
	// small chain spaces — the precomputed full chain list scanned exactly.
	dimScore    []float64
	dimOrder    []int
	dimNames    []string
	exactChains [][][]int // per dim; nil selects random candidate draws
	spatialIdx  []int     // spatial slot indices, widest fanout first
	win         guidedWinner
	winFound    bool

	res       *Result
	phase     string
	seeded    bool // constructive seed attempted (snapshot: Warmed)
	restarts  int64
	sinceBest int64
	done      bool
	start     time.Time
}

// NewGuided builds a resumable model-guided search. opt.Threads is ignored
// (the scan is serial by design — its determinism is the point) and
// opt.ConsecutiveNoImprove does not apply: termination is
// guidedStalePatience restarts without improvement, or opt.MaxEvaluations.
func NewGuided(sp *mapspace.Space, eng *engine.Engine, opt Options) *GuidedSearcher {
	opt = opt.withDefaults()
	requireSharedContext(sp, eng)
	s := &GuidedSearcher{
		sp: sp, eng: eng, opt: opt,
		rng: checkpoint.NewRNG(opt.Seed),
		wk:  eng.NewWorker(), smp: sp.NewSampler(),
		mut: sp.NewMutator(), dw: eng.NewDelta(),
		m:   &mapping.Mapping{},
		res: &Result{}, phase: guidedPhaseSeed, start: time.Now(),
	}
	s.rnd = rand.New(s.rng)
	s.bd = s.dw.NewBreakdown()
	s.gm, _ = eng.Metrics().(engine.GuidedMetrics)
	nd := s.mut.NumDims()
	s.dimScore = make([]float64, nd)
	s.dimOrder = make([]int, nd)
	s.dimNames = sp.Work.DimNames()
	s.exactChains = make([][][]int, nd)
	for di, d := range s.dimNames {
		if sp.ChainCount(d) > guidedExactChainCap {
			continue
		}
		sp.EnumerateChains(d, func(fs []int) bool {
			s.exactChains[di] = append(s.exactChains[di], append([]int(nil), fs...))
			return true
		})
	}
	for _, sl := range sp.Slots() {
		if sl.Spatial() {
			s.spatialIdx = append(s.spatialIdx, sl.Index)
		}
	}
	slots := sp.Slots()
	for i := 1; i < len(s.spatialIdx); i++ {
		si := s.spatialIdx[i]
		j := i - 1
		for ; j >= 0 && slots[s.spatialIdx[j]].Fanout < slots[si].Fanout; j-- {
			s.spatialIdx[j+1] = s.spatialIdx[j]
		}
		s.spatialIdx[j+1] = si
	}
	return s
}

// Guided runs the model-guided greedy mapper to completion and returns the
// best mapping found. See GuidedSearcher for the algorithm; this is the
// one-shot entry point matching Random and friends.
func Guided(ctx context.Context, sp *mapspace.Space, eng *engine.Engine, opt Options) *Result {
	return stepToDone(ctx, "search:guided", NewGuided(sp, eng, opt))
}

// Result returns the result so far.
func (s *GuidedSearcher) Result() *Result { return s.res }

// budgetLeft mirrors the other searchers' evaluation-budget check.
func (s *GuidedSearcher) budgetLeft() bool {
	return s.opt.MaxEvaluations <= 0 || s.res.Evaluated < s.opt.MaxEvaluations
}

// considerBest adopts (m, c) as the global incumbent when it improves it.
func (s *GuidedSearcher) considerBest(m *mapping.Mapping, c *nest.Cost, met engine.Metrics) {
	v := s.opt.Objective.Value(c)
	if s.res.Best != nil && v >= s.opt.Objective.Value(&s.res.BestCost) {
		return
	}
	s.res.improve(m, c, v, met)
	s.sinceBest = 0
}

// Step performs one atomic unit of guided search: a seed attempt (phase 1),
// one full steepest-descent sweep plus — when the sweep stalls — one
// perturbation restart (phases 2+3). Cancellation is honored between Steps;
// a single sweep is bounded (a few dozen delta evaluations), so latency
// stays comparable to the batch searchers without any rollback machinery.
func (s *GuidedSearcher) Step(ctx context.Context) (bool, error) {
	if s.done {
		return true, nil
	}
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	met := s.eng.Metrics()
	if s.phase == guidedPhaseSeed {
		return s.stepSeed(met)
	}
	return s.stepSweep(met)
}

// stepSeed establishes a valid incumbent: the warm start if given, then the
// constructive all-at-DRAM mapping, then batches of random samples.
func (s *GuidedSearcher) stepSeed(met engine.Metrics) (bool, error) {
	if !s.seeded {
		s.seeded = true
		if s.opt.WarmStart != nil {
			// Uncounted, matching the other searchers' warm-start handling.
			if c := s.eng.Evaluate(s.opt.WarmStart); c.Valid {
				s.res.Best = s.opt.WarmStart.Clone()
				s.res.BestCost = c.Clone()
				s.res.Trace = append(s.res.Trace, TracePoint{Evals: 0, Value: s.opt.Objective.Value(&c)})
			}
		}
		if s.budgetLeft() {
			seed := mapping.Uniform(s.sp.Work, s.sp.Arch, 0)
			s.res.Evaluated++
			c := s.wk.EvaluateShared(seed)
			if c.Valid {
				s.res.Valid++
				s.considerBest(seed, &c, met)
			}
		}
		s.spatialSeeds(met)
		if s.res.Best != nil {
			s.enterSweep()
			return false, nil
		}
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		return false, nil
	}
	// The constructive seed was invalid for this space (constraints, exotic
	// fanout): fall back to random sampling for a foothold.
	for i := 0; i < guidedSeedBatch; i++ {
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		s.res.Evaluated++
		s.smp.SampleInto(s.rnd, s.m)
		c := s.wk.EvaluateShared(s.m)
		if c.Valid {
			s.res.Valid++
			s.considerBest(s.m, &c, met)
			s.enterSweep()
			return false, nil
		}
	}
	return false, nil
}

// spatialSeeds evaluates the spatially-saturating constructive seeds: every
// injective assignment of workload dims to parFor slots (greedy, one slot at
// a time, when there are too many), each assigned dim spatialized by its
// largest divisor fitting the slot's fanout and the remainder left at DRAM.
// Which dims own the array is the most coupled choice in the mapspace —
// swapping two dims across a saturated fanout needs two simultaneous chain
// moves the descent cannot make — so it is settled here by construction.
// Draw-free and deterministic; every evaluation is counted.
func (s *GuidedSearcher) spatialSeeds(met engine.Metrics) {
	ns, nd := len(s.spatialIdx), len(s.dimNames)
	if ns == 0 {
		return
	}
	assign := make([]int, ns)
	used := make([]bool, nd)
	count := 1
	for k := 0; k < ns && k < nd; k++ {
		count *= nd - k
		if count > guidedSeedAssignCap {
			break
		}
	}
	if count <= guidedSeedAssignCap {
		s.enumSpatialSeeds(assign, used, 0, met)
		return
	}
	// Greedy: fill the widest fanout first, keeping the dim whose seed
	// evaluates best given the slots already assigned.
	for k := range assign {
		assign[k] = -1
	}
	bestSoFar := math.Inf(1)
	for k := 0; k < ns; k++ {
		bestDim := -1
		for di := 0; di < nd; di++ {
			if used[di] {
				continue
			}
			assign[k] = di
			if v, ok := s.evalSeed(s.buildSpatialSeed(assign), met); ok && v < bestSoFar {
				bestSoFar, bestDim = v, di
			}
			if !s.budgetLeft() {
				return
			}
		}
		assign[k] = bestDim
		if bestDim >= 0 {
			used[bestDim] = true
		}
	}
}

// enumSpatialSeeds recursively evaluates every injective assignment of dims
// to the spatial slots from position k on.
func (s *GuidedSearcher) enumSpatialSeeds(assign []int, used []bool, k int, met engine.Metrics) {
	if k == len(assign) {
		s.evalSeed(s.buildSpatialSeed(assign), met)
		return
	}
	any := false
	for di := range used {
		if used[di] {
			continue
		}
		if !s.budgetLeft() {
			return
		}
		any = true
		assign[k], used[di] = di, true
		s.enumSpatialSeeds(assign, used, k+1, met)
		used[di] = false
	}
	if !any {
		// More spatial slots than dims: leave the narrower ones empty.
		for i := k; i < len(assign); i++ {
			assign[i] = -1
		}
		s.evalSeed(s.buildSpatialSeed(assign), met)
	}
}

// buildSpatialSeed constructs the all-at-DRAM mapping with assign's dims
// spatialized: assign[k] is the dim occupying spatial slot s.spatialIdx[k]
// (-1 leaves it empty), factored by its largest divisor fitting the fanout.
func (s *GuidedSearcher) buildSpatialSeed(assign []int) *mapping.Mapping {
	m := mapping.Uniform(s.sp.Work, s.sp.Arch, 0)
	slots := s.sp.Slots()
	for k, di := range assign {
		if di < 0 {
			continue
		}
		d := s.dimNames[di]
		b := s.sp.Work.Bound(d)
		f := largestDivisorAtMost(b, slots[s.spatialIdx[k]].Fanout)
		if f <= 1 {
			continue
		}
		fs := m.Factors[d]
		fs[0] = b / f
		fs[s.spatialIdx[k]] = f
	}
	return m
}

// evalSeed scores one constructive seed (counted), feeding the incumbent.
func (s *GuidedSearcher) evalSeed(m *mapping.Mapping, met engine.Metrics) (float64, bool) {
	if !s.budgetLeft() {
		return 0, false
	}
	s.res.Evaluated++
	c := s.wk.EvaluateShared(m)
	if !c.Valid {
		return 0, false
	}
	s.res.Valid++
	s.considerBest(m, &c, met)
	return s.opt.Objective.Value(&c), true
}

// largestDivisorAtMost returns the largest divisor of n not exceeding lim
// (at least 1).
func largestDivisorAtMost(n, lim int) int {
	if lim > n {
		lim = n
	}
	for f := lim; f > 1; f-- {
		if n%f == 0 {
			return f
		}
	}
	return 1
}

// enterSweep transitions to the greedy phase, starting from the incumbent.
func (s *GuidedSearcher) enterSweep() {
	s.phase = guidedPhaseSweep
	s.cur, s.sweepReady = nil, false
}

// stepSweep runs one steepest-descent sweep and, when it stalls, one
// perturbation restart.
func (s *GuidedSearcher) stepSweep(met engine.Metrics) (bool, error) {
	if !s.sweepReady {
		// Lazy (re-)seeding of the delta session (process-local state, not
		// checkpoint state): uncounted and draw-free, so resumed and
		// uninterrupted runs stay bit-identical.
		if s.cur == nil {
			s.cur = s.res.Best.Clone()
		}
		c := s.dw.Seed(s.cur)
		if !c.Valid {
			return false, errors.New("search: guided working mapping no longer validates")
		}
		s.curVal = s.opt.Objective.Value(&c)
		s.sweepReady = true
	}
	if !s.budgetLeft() {
		return s.finish(met), nil
	}
	improved, spent, err := s.scan(met)
	if err != nil {
		return false, err
	}
	if spent {
		return s.finish(met), nil
	}
	if improved {
		return false, nil
	}
	ok, spent, err := s.spatialRescue(met)
	if err != nil {
		return false, err
	}
	if spent {
		return s.finish(met), nil
	}
	if ok {
		return false, nil
	}
	return s.restart(met)
}

// spatialRescue breaks pairwise coupling at saturated parFor slots. A stalled
// sweep means no single-dim chain move improves the working mapping — but at
// a full fanout, handing capacity from one dim to another needs two
// simultaneous chain moves (shrinking one dim's parFor factor alone wastes
// the array, growing the other's alone overflows it), which the coordinate
// descent cannot make. This rescue enumerates, for every spatial slot and
// every dim pair, the divisor splits (fa, fb) of the slot's fanout budget,
// patching both chains at once (the displaced iterations return to DRAM) and
// evaluating the joint candidate in full. The best improving candidate
// becomes the working mapping and descent continues; draw-free, every
// evaluation counted. Cold path: runs only when a sweep stalls.
func (s *GuidedSearcher) spatialRescue(met engine.Metrics) (bool, bool, error) {
	var bestM *mapping.Mapping
	bestV := s.curVal
	slots := s.sp.Slots()
	nd := len(s.dimNames)
	for _, si := range s.spatialIdx {
		fanout := slots[si].Fanout
		for a := 0; a < nd; a++ {
			for b := a + 1; b < nd; b++ {
				others := 1
				for di := 0; di < nd; di++ {
					if di != a && di != b {
						others *= s.cur.Factors[s.dimNames[di]][si]
					}
				}
				if others > fanout {
					continue
				}
				budget := fanout / others
				da, db := s.dimNames[a], s.dimNames[b]
				restA := chainRest(s.cur.Factors[da], si)
				restB := chainRest(s.cur.Factors[db], si)
				ba, bb := s.sp.Work.Bound(da), s.sp.Work.Bound(db)
				if restA <= 0 || restB <= 0 || ba%restA != 0 || bb%restB != 0 {
					// The pair's chains are imperfect outside this slot; the
					// rescue only rebuilds perfect splits.
					continue
				}
				maxA, maxB := ba/restA, bb/restB
				curA, curB := s.cur.Factors[da][si], s.cur.Factors[db][si]
				for fa := 1; fa <= maxA && fa <= budget; fa++ {
					if maxA%fa != 0 {
						continue
					}
					for fb := 1; fb <= maxB && fa*fb <= budget; fb++ {
						if maxB%fb != 0 || (fa == curA && fb == curB) {
							continue
						}
						if !s.budgetLeft() {
							return bestM != nil, true, nil
						}
						cand := s.cur.Clone()
						fsA, fsB := cand.Factors[da], cand.Factors[db]
						fsA[si], fsA[0] = fa, maxA/fa
						fsB[si], fsB[0] = fb, maxB/fb
						if v, ok := s.evalSeed(cand, met); ok && v < bestV {
							bestM, bestV = cand, v
						}
					}
				}
			}
		}
	}
	if bestM == nil {
		return false, false, nil
	}
	s.cur = bestM
	c := s.dw.Seed(s.cur)
	if !c.Valid {
		return false, false, errors.New("search: guided rescue mapping no longer validates")
	}
	s.curVal = s.opt.Objective.Value(&c)
	return true, false, nil
}

// chainRest is the product of a chain's factors outside the DRAM slot (0)
// and slot si — the part of the dim's tiling the spatial rescue preserves.
func chainRest(fs []int, si int) int {
	rest := 1
	for j := 1; j < len(fs); j++ {
		if j != si {
			rest *= fs[j]
		}
	}
	return rest
}

// scan is the guided inner loop: one greedy coordinate-descent sweep over
// the move neighborhood of the working mapping, scored by the delta kernel.
// The neighborhood is visited in groups — one group per workload dim (its
// chain candidates), per level (its loop-order candidates) and per bypass
// pair — and each group's best improving proposal is committed immediately
// before the next group is scanned, so one sweep can improve every
// coordinate. Candidates are rejected and undone during the group scan; the
// commit replays the recorded winner. Returns whether any group improved and
// whether the evaluation budget ran out mid-sweep.
//
// Steady-state allocation-free: the ranking scratch, the winner record, the
// precomputed chain lists and the Mutator's move are all preallocated, and
// sorting is a hand-rolled insertion sort (sort.Slice would box its
// arguments).
//
//ruby:hotpath
func (s *GuidedSearcher) scan(met engine.Metrics) (bool, bool, error) {
	improved := false

	// Rank dims by attributed cost: the energy charged to tensors each dim
	// indexes, weighted by the dim's latency factor. The expensive dims are
	// scanned first (their chains move the most cost) and get the most
	// random candidates when their chain space is too big to scan exactly.
	s.dw.Attribute(s.bd)
	nd := len(s.dimOrder)
	for d := 0; d < nd; d++ {
		cyc := s.bd.DimCycles[d]
		if cyc < 1 {
			cyc = 1
		}
		s.dimScore[d] = s.bd.DimEnergyPJ[d] * cyc
		s.dimOrder[d] = d
	}
	for i := 1; i < nd; i++ {
		d := s.dimOrder[i]
		sc := s.dimScore[d]
		j := i - 1
		for ; j >= 0 && s.dimScore[s.dimOrder[j]] < sc; j-- {
			s.dimOrder[j+1] = s.dimOrder[j]
		}
		s.dimOrder[j+1] = d
	}

	// Tiling-chain groups. Dims with a small chain space are scanned
	// exactly (every chain, no draws — the per-dim commit is the true
	// coordinate optimum); large ones get random candidate draws.
	for i := 0; i < nd; i++ {
		d := s.dimOrder[i]
		s.winFound = false
		best := s.curVal
		if chains := s.exactChains[d]; chains != nil {
			curChain := s.cur.Factors[s.dimNames[d]]
			for ci := range chains {
				if sameChain(chains[ci], curChain) {
					continue
				}
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposeChainSet(d, chains[ci])
				s.tryCandidate(mv, guidedKindChainExact, d, ci, pre, &best, met)
			}
		} else {
			k := guidedTailCands
			if i < 2 {
				k = guidedHeadCands
			} else if i < 4 {
				k = guidedMidCands
			}
			for j := 0; j < k; j++ {
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposeChainID(s.rnd, d)
				s.tryCandidate(mv, guidedKindChain, d, 0, pre, &best, met)
			}
		}
		ok, spent, err := s.commitGroup(met)
		if spent || err != nil {
			return improved, spent, err
		}
		improved = improved || ok
	}

	// Loop-order groups per level. Under FixedPerms the canonical order is
	// the only legal one, so there is nothing to scan.
	if !s.sp.Cons.FixedPerms {
		for li := 0; li < len(s.sp.Arch.Levels); li++ {
			s.winFound = false
			best := s.curVal
			for j := 0; j < guidedPermCands; j++ {
				if !s.budgetLeft() {
					return improved, true, nil
				}
				pre := *s.rng
				mv := s.mut.ProposePerm(s.rnd, li)
				s.tryCandidate(mv, guidedKindPerm, li, 0, pre, &best, met)
			}
			ok, spent, err := s.commitGroup(met)
			if spent || err != nil {
				return improved, spent, err
			}
			improved = improved || ok
		}
	}

	// Every togglable bypass pair, systematically (draw-free).
	for k := 0; k < s.mut.NumBypass(); k++ {
		s.winFound = false
		best := s.curVal
		if !s.budgetLeft() {
			return improved, true, nil
		}
		pre := *s.rng
		mv := s.mut.ProposeKeepAt(k)
		s.tryCandidate(mv, guidedKindKeep, k, 0, pre, &best, met)
		ok, spent, err := s.commitGroup(met)
		if spent || err != nil {
			return improved, spent, err
		}
		improved = improved || ok
	}
	return improved, false, nil
}

// commitGroup commits the group winner recorded in s.win, if any. Returns
// (committed, budget-spent, error).
func (s *GuidedSearcher) commitGroup(met engine.Metrics) (bool, bool, error) {
	if !s.winFound {
		return false, false, nil
	}
	if !s.budgetLeft() {
		return false, true, nil
	}
	if err := s.commitWinner(met); err != nil {
		return false, false, err
	}
	return true, false, nil
}

// sameChain reports whether the candidate chain equals the mapping's current
// one (a no-op proposal the exact scan skips).
//
//ruby:hotpath
func sameChain(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tryCandidate scores one proposal against the working mapping and rolls it
// back, recording it as the sweep winner when it beats the best value seen
// so far this sweep. A candidate that also beats the global incumbent is
// adopted immediately (cloned before the rollback), so budget exhaustion
// never loses an already-paid-for improvement.
//
//ruby:hotpath
func (s *GuidedSearcher) tryCandidate(mv *mapspace.Move, kind, arg, arg2 int, pre checkpoint.RNG, best *float64, met engine.Metrics) {
	mv.Apply(s.cur)
	s.res.Evaluated++
	c := s.dw.Evaluate(mv.Delta())
	if c.Valid {
		s.res.Valid++
		if v := s.opt.Objective.Value(&c); v < *best {
			*best = v
			s.winFound = true
			s.win = guidedWinner{kind: kind, arg: arg, arg2: arg2, val: v, pre: pre}
			s.considerBest(s.cur, &c, met)
		}
	}
	s.dw.Reject()
	mv.Undo(s.cur)
}

// commitWinner rewinds the RNG to the winning proposal's pre-state,
// re-proposes it (identical draws reproduce the identical move), and commits
// it onto the working mapping.
func (s *GuidedSearcher) commitWinner(met engine.Metrics) error {
	*s.rng = s.win.pre
	var mv *mapspace.Move
	switch s.win.kind {
	case guidedKindChain:
		mv = s.mut.ProposeChainID(s.rnd, s.win.arg)
	case guidedKindChainExact:
		mv = s.mut.ProposeChainSet(s.win.arg, s.exactChains[s.win.arg][s.win.arg2])
	case guidedKindPerm:
		mv = s.mut.ProposePerm(s.rnd, s.win.arg)
	default:
		mv = s.mut.ProposeKeepAt(s.win.arg)
	}
	mv.Apply(s.cur)
	s.res.Evaluated++
	c := s.dw.Evaluate(mv.Delta())
	v := s.opt.Objective.Value(&c)
	if !c.Valid || v >= s.curVal {
		s.dw.Reject()
		mv.Undo(s.cur)
		return fmt.Errorf("search: guided winner replay diverged (valid=%v value=%v, scanned %v)",
			c.Valid, v, s.win.val)
	}
	s.res.Valid++
	s.dw.Commit()
	s.curVal = v
	if s.gm != nil {
		s.gm.GuidedMove()
	}
	s.considerBest(s.cur, &c, met)
	return nil
}

// restart is the perturbation phase: the sweep found no improving move, so
// the working mapping is a local optimum. Re-seed from the incumbent and
// commit a few random moves onto it (accepting them even when they are
// worse — that is the escape), then let the next sweep descend again.
func (s *GuidedSearcher) restart(met engine.Metrics) (bool, error) {
	s.restarts++
	s.sinceBest++
	if s.gm != nil {
		s.gm.GuidedRestart()
	}
	if s.sinceBest >= guidedStalePatience || !s.budgetLeft() {
		return s.finish(met), nil
	}
	if s.sinceBest%guidedDiversifyEvery == 0 {
		// Diversification: descend from the best of a batch of fresh random
		// samples (GRASP-style) instead of kicking the incumbent's basin yet
		// again.
		var bestM *mapping.Mapping
		var bestV float64
		for i := 0; i < guidedSeedBatch; i++ {
			if !s.budgetLeft() {
				break
			}
			s.res.Evaluated++
			s.smp.SampleInto(s.rnd, s.m)
			c := s.wk.EvaluateShared(s.m)
			if !c.Valid {
				continue
			}
			s.res.Valid++
			s.considerBest(s.m, &c, met)
			if v := s.opt.Objective.Value(&c); bestM == nil || v < bestV {
				bestM, bestV = s.m.Clone(), v
			}
		}
		if !s.budgetLeft() {
			return s.finish(met), nil
		}
		if bestM != nil {
			s.cur = bestM
			cc := s.dw.Seed(s.cur)
			s.curVal = s.opt.Objective.Value(&cc)
			s.sweepReady = true
			return false, nil
		}
		// Nothing valid in the batch; fall through to a perturbation kick.
	}
	s.cur = s.res.Best.Clone()
	c := s.dw.Seed(s.cur)
	if !c.Valid {
		return false, errors.New("search: guided incumbent no longer validates")
	}
	s.curVal = s.opt.Objective.Value(&c)
	s.sweepReady = true
	kick := guidedPerturbMin + int(s.sinceBest-1)%(guidedPerturbMax-guidedPerturbMin+1)
	for i := 0; i < kick && s.budgetLeft(); i++ {
		mv := s.mut.Propose(s.rnd)
		mv.Apply(s.cur)
		s.res.Evaluated++
		cc := s.dw.Evaluate(mv.Delta())
		if cc.Valid {
			s.res.Valid++
			s.dw.Commit()
			s.curVal = s.opt.Objective.Value(&cc)
			s.considerBest(s.cur, &cc, met) // a kick can stumble onto an improvement
		} else {
			s.dw.Reject()
			mv.Undo(s.cur)
		}
	}
	return false, nil
}

func (s *GuidedSearcher) finish(met engine.Metrics) bool {
	s.done = true
	reportDone(met, s.opt.Objective, s.res, s.start)
	return true
}

// Snapshot implements Searcher.
func (s *GuidedSearcher) Snapshot() (*checkpoint.SearchState, error) {
	st, err := snapshotOf("guided", s.done, s.rng, s.res)
	if err != nil {
		return nil, err
	}
	st.Warmed, st.Phase = s.seeded, s.phase
	st.Restarts, st.SinceBest = s.restarts, s.sinceBest
	if s.cur != nil {
		if st.Cur, err = s.cur.Encode(); err != nil {
			return nil, fmt.Errorf("search: snapshot working mapping: %w", err)
		}
	}
	return st, nil
}

// Restore implements Searcher.
func (s *GuidedSearcher) Restore(st *checkpoint.SearchState) error {
	if err := restoreInto(st, "guided", s.rng, s.sp, s.res); err != nil {
		return err
	}
	s.seeded, s.done = st.Warmed, st.Done
	s.phase = st.Phase
	if s.phase == "" {
		s.phase = guidedPhaseSeed
	}
	s.restarts, s.sinceBest = st.Restarts, st.SinceBest
	// The delta session is process-local: drop the working mapping's session
	// and re-seed on the next sweep step.
	s.sweepReady = false
	var err error
	s.cur, err = decodeMapping(st.Cur, s.sp, "working mapping")
	return err
}
