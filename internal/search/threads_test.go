package search

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
)

// TestResumableOneAnswerAtAnyThreads runs every algorithm of Algorithms on
// the toy and on a suite layer, at one and at three threads, ending by the
// cap, by the no-improve criterion and with a warm start, and requires the
// same best mapping, cost, counters and trace at both thread counts.
func TestResumableOneAnswerAtAnyThreads(t *testing.T) {
	toySp, _ := toyEngine(mapspace.RubyS)
	layerSp, _ := suiteLayer(engine.Config{})
	for _, sp := range []*mapspace.Space{toySp, layerSp} {
		// A valid but poor warm start, which the searches can improve on.
		warm := Random(context.Background(), sp, newEngine(sp), Options{Seed: 99, Threads: 1, MaxEvaluations: 40})
		if warm.Best == nil {
			t.Fatalf("%s: no valid warm start", sp.Work.Name)
		}
		endings := []struct {
			name string
			opt  Options
		}{
			{"cap", Options{MaxEvaluations: 300}},
			{"no-improve", Options{MaxEvaluations: 900, ConsecutiveNoImprove: 60}},
			{"warm-start", Options{MaxEvaluations: 300, WarmStart: warm.Best}},
		}
		for _, algo := range Algorithms {
			for _, end := range endings {
				name := sp.Work.Name + "/" + algo + "/" + end.name
				opt := end.opt
				opt.Seed, opt.KeepTrace = 3, true
				var res [2]*Result
				for i, threads := range []int{1, 3} {
					opt.Threads = threads
					r, err := Run(context.Background(), sp, newEngine(sp), algo, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res[i] = r
				}
				sameResult(t, name, res[1], res[0])
				if res[0].Best != nil {
					if k0, k1 := res[0].Best.Key(sp.Work, sp.Slots()), res[1].Best.Key(sp.Work, sp.Slots()); k0 != k1 {
						t.Errorf("%s: best mapping %s at one thread, %s at three", name, k0, k1)
					}
				}
			}
		}
	}
}

// TestKillAndResumeRandomThreads: a random search killed after any Step at
// two threads and resumed from its JSON snapshot at two threads ends as an
// uninterrupted one-thread run. Its budget spans several two-thread
// windows.
func TestKillAndResumeRandomThreads(t *testing.T) {
	opt := Options{Seed: 11, MaxEvaluations: 3*randomWindow + 500, KeepTrace: true}
	mk := func(threads int) *RandomSearcher {
		sp, eng := toyEngine(mapspace.RubyS)
		o := opt
		o.Threads = threads
		return NewRandom(sp, eng, o)
	}
	want := runToCompletion(t, mk(1))
	for stop := 1; ; stop++ {
		s := mk(2)
		done := false
		for i := 0; i < stop && !done; i++ {
			var err error
			if done, err = s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back checkpoint.SearchState
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		r := mk(2)
		if err := r.Restore(&back); err != nil {
			t.Fatalf("stop=%d Restore: %v", stop, err)
		}
		sameResult(t, fmt.Sprintf("stop=%d", stop), runToCompletion(t, r), want)
		if done {
			return
		}
	}
}

// newEngine builds a pass-through engine over sp's workload and
// architecture.
func newEngine(sp *mapspace.Space) *engine.Engine {
	return engine.New(nest.MustEvaluator(sp.Work, sp.Arch))
}

// TestRandomStopsWithinOneClaim: a one-thread search that the no-improve
// criterion stops evaluates less than one claim chunk past its stop point,
// and counts only the draws it committed.
func TestRandomStopsWithinOneClaim(t *testing.T) {
	sp, ev := toy(mapspace.PFM)
	met := &engine.Counters{}
	eng := engine.Config{Metrics: met}.New(ev)
	chunk := 0 // the size of one claim
	eng.NewBatch(false, 1).Run(context.Background(), 1000, func(_ context.Context, _ int, _ *engine.Worker, lo, hi int) bool {
		chunk = hi - lo
		return false
	})
	res := Random(context.Background(), sp, eng, Options{Seed: 2, Threads: 1, ConsecutiveNoImprove: 200})
	if res.Evaluated >= randomWindow {
		t.Fatalf("search ran %d draws; the check needs it to stop inside its first window", res.Evaluated)
	}
	if evals := met.Snapshot().Evaluations; evals < res.Evaluated || evals-res.Evaluated >= int64(chunk) {
		t.Errorf("evaluated %d draws to commit %d, want fewer than %d past the stop", evals, res.Evaluated, chunk)
	}
}

// TestRandomRestoreRejectsRNGSnapshot: a random snapshot that carries an
// RNG state was written when random search drew from one serial RNG, so
// Restore refuses it and says why.
func TestRandomRestoreRejectsRNGSnapshot(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	s := NewRandom(sp, eng, Options{Seed: 4, MaxEvaluations: 600})
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.RNG != nil {
		t.Fatal("random snapshot carries an RNG state")
	}
	st.RNG = checkpoint.NewRNG(4)
	err = NewRandom(sp, eng, Options{Seed: 4, MaxEvaluations: 600}).Restore(st)
	if err == nil {
		t.Fatal("Restore accepted a random snapshot with an RNG state")
	}
	t.Log(err)
}
