package search

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/checkpoint"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workloads"
)

func toyEngine(kind mapspace.Kind) (*mapspace.Space, *engine.Engine) {
	sp, ev := toy(kind)
	return sp, engine.New(ev)
}

// newSearcherFn builds a searcher that evaluates on threads goroutines.
type newSearcherFn func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher

func searcherVariants() map[string]newSearcherFn {
	return map[string]newSearcherFn{
		"random": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewRandom(sp, eng, Options{Seed: 11, Threads: threads, MaxEvaluations: 3000, KeepTrace: true})
		},
		"hillclimb": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewHillClimb(sp, eng, Options{Seed: 11, Threads: threads, MaxEvaluations: 2000, Warmup: 200, Patience: 150})
		},
		"exhaustive": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewExhaustive(sp, eng, Options{Threads: threads}, 0)
		},
		"guided": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewGuided(sp, eng, Options{Seed: 11, Threads: threads, MaxEvaluations: 2000})
		},
		"anneal": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewAnneal(sp, eng, Options{Seed: 11, Threads: threads, MaxEvaluations: 640, Warmup: 100})
		},
		"genetic": func(sp *mapspace.Space, eng *engine.Engine, threads int) Searcher {
			return NewGenetic(sp, eng, Options{Seed: 11, Threads: threads, MaxEvaluations: 640})
		},
	}
}

func runToCompletion(t *testing.T, s Searcher) *Result {
	t.Helper()
	for {
		done, err := s.Step(context.Background())
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			return s.Result()
		}
	}
}

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Evaluated != want.Evaluated || got.Valid != want.Valid {
		t.Errorf("%s: counters (%d evaluated, %d valid), want (%d, %d)",
			name, got.Evaluated, got.Valid, want.Evaluated, want.Valid)
	}
	if (got.Best == nil) != (want.Best == nil) {
		t.Fatalf("%s: incumbent presence mismatch", name)
	}
	if got.Best != nil {
		// Bit-identical costs: Go's JSON float encoding is the shortest
		// round-trip representation, so equal strings mean equal bits.
		gc, _ := json.Marshal(got.BestCost)
		wc, _ := json.Marshal(want.BestCost)
		if string(gc) != string(wc) {
			t.Errorf("%s: best cost %s, want %s", name, gc, wc)
		}
		gb, _ := got.Best.Encode()
		wb, _ := want.Best.Encode()
		if string(gb) != string(wb) {
			t.Errorf("%s: incumbent mapping differs:\n%s\nvs\n%s", name, gb, wb)
		}
	}
	if len(got.Trace) != len(want.Trace) {
		t.Errorf("%s: trace length %d, want %d", name, len(got.Trace), len(want.Trace))
	} else {
		for i := range got.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Errorf("%s: trace[%d] = %+v, want %+v", name, i, got.Trace[i], want.Trace[i])
			}
		}
	}
}

// A search interrupted at an arbitrary point and resumed from its snapshot
// yields a bit-identical final incumbent, cost, evaluation count and trace
// to an uninterrupted run, here interrupted and resumed at two threads
// against an uninterrupted run at one. Run with -race.
func TestKillAndResumeBitIdentical(t *testing.T) {
	for name, mk := range searcherVariants() {
		t.Run(name, func(t *testing.T) {
			sp, eng := toyEngine(mapspace.RubyS)
			want := runToCompletion(t, mk(sp, eng, 1))

			// Interrupt after every possible step count: snapshot, rebuild a
			// fresh searcher (fresh process simulation), restore, finish.
			for stop := 1; ; stop++ {
				sp2, eng2 := toyEngine(mapspace.RubyS)
				s := mk(sp2, eng2, 2)
				done := false
				for i := 0; i < stop && !done; i++ {
					var err error
					done, err = s.Step(context.Background())
					if err != nil {
						t.Fatalf("stop=%d Step: %v", stop, err)
					}
				}
				st, err := s.Snapshot()
				if err != nil {
					t.Fatalf("stop=%d Snapshot: %v", stop, err)
				}

				sp3, eng3 := toyEngine(mapspace.RubyS)
				r := mk(sp3, eng3, 2)
				if err := r.Restore(st); err != nil {
					t.Fatalf("stop=%d Restore: %v", stop, err)
				}
				got := runToCompletion(t, r)
				sameResult(t, name, got, want)
				if done {
					return // interrupted past the end; all prefixes covered
				}
			}
		})
	}
}

// Cancelling mid-step must not corrupt state: the searcher rolls back to the
// last committed boundary, and resuming finishes identically.
func TestCancelMidStepThenResume(t *testing.T) {
	for name, mk := range searcherVariants() {
		t.Run(name, func(t *testing.T) {
			sp, eng := toyEngine(mapspace.RubyS)
			want := runToCompletion(t, mk(sp, eng, 2))

			sp2, eng2 := toyEngine(mapspace.RubyS)
			s := mk(sp2, eng2, 1)
			if _, err := s.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := s.Step(ctx); err == nil {
				t.Fatal("cancelled Step returned nil error")
			}
			st, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			sp3, eng3 := toyEngine(mapspace.RubyS)
			r := mk(sp3, eng3, 2)
			if err := r.Restore(st); err != nil {
				t.Fatal(err)
			}
			got := runToCompletion(t, r)
			sameResult(t, name, got, want)
		})
	}
}

// cancelAfter is a Metrics hook that cancels its context when its
// countdown of evaluations reaches zero, cutting a batch off part way.
type cancelAfter struct {
	engine.Metrics
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Evaluation(bool, bool) {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
}

// suiteLayer builds the space of a ResNet-50 layer on the Simba-like array
// that also explores loop orders and bypass, and an engine from cfg. Unlike
// the toy, where every searcher soon pins the one optimum, a wrong draw or
// a lost piece of state here changes the final result.
func suiteLayer(cfg engine.Config) (*mapspace.Space, *engine.Engine) {
	layer := workloads.ResNet50()[3]
	simba := arch.SimbaLike(15, 4, 4)
	cons := mapspace.SimbaDataflow(layer.Work)
	cons.ExploreBypass = true
	return mapspace.New(layer.Work, simba, mapspace.RubyS, cons), cfg.New(nest.MustEvaluator(layer.Work, simba))
}

// A batch searcher cancelled part way through a batch commits none of it:
// resuming from its snapshot finishes exactly as an uninterrupted run.
func TestCancelMidBatchThenResume(t *testing.T) {
	for _, name := range []string{"random", "genetic"} {
		t.Run(name, func(t *testing.T) {
			mk := searcherVariants()[name]
			sp, eng := suiteLayer(engine.Config{})
			want := runToCompletion(t, mk(sp, eng, 1))

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := &cancelAfter{Metrics: engine.NopMetrics, cancel: cancel}
			sp, eng = suiteLayer(engine.Config{Metrics: hook})
			s := mk(sp, eng, 1)
			if _, err := s.Step(ctx); err != nil {
				t.Fatal(err)
			}
			before := s.Result().Evaluated
			hook.left.Store(10)
			if _, err := s.Step(ctx); err == nil {
				t.Fatal("Step cut off mid-batch returned nil error")
			}
			if got := s.Result().Evaluated; got != before {
				t.Errorf("cut-off Step committed %d evaluations", got-before)
			}
			st, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			sp, eng = suiteLayer(engine.Config{})
			r := mk(sp, eng, 2)
			if err := r.Restore(st); err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, runToCompletion(t, r), want)
		})
	}
}

// The toy has one dimension and fixed loop orders; on a suite layer whose
// space also explores loop orders and bypass, the mappings in anneal and
// genetic snapshots (the annealer's working mapping, the genetic
// population) and the temperature must survive a JSON round trip and
// resume bit-identically.
func TestKillAndResumeOnSuiteLayer(t *testing.T) {
	for _, name := range []string{"anneal", "genetic"} {
		mk := searcherVariants()[name]
		t.Run(name, func(t *testing.T) {
			sp, eng := suiteLayer(engine.Config{})
			want := runToCompletion(t, mk(sp, eng, 2))
			for _, stop := range []int{1, 3, 7} {
				sp, eng := suiteLayer(engine.Config{})
				s := mk(sp, eng, 2)
				for i := 0; i < stop; i++ {
					if _, err := s.Step(context.Background()); err != nil {
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
				sp, eng = suiteLayer(engine.Config{})
				r := mk(sp, eng, 1)
				if err := r.Restore(&back); err != nil {
					t.Fatalf("stop=%d Restore: %v", stop, err)
				}
				sameResult(t, name, runToCompletion(t, r), want)
			}
		})
	}
}

// RunCheckpointed persists snapshots; a second process resuming via
// RestoreFromFile completes with the same result.
func TestRunCheckpointedResumeFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.json")

	sp, eng := toyEngine(mapspace.RubyS)
	want, err := RunCheckpointed(context.Background(), NewRandom(sp, eng, Options{Seed: 3, MaxEvaluations: 2000}), CheckpointConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// "Process one": run a few steps, then get killed (simulated by writing a
	// snapshot and dropping the searcher).
	sp1, eng1 := toyEngine(mapspace.RubyS)
	s1 := NewRandom(sp1, eng1, Options{Seed: 3, MaxEvaluations: 2000})
	for i := 0; i < 3; i++ {
		if _, err := s1.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(path, checkpoint.KindSearch, st); err != nil {
		t.Fatal(err)
	}

	// "Process two": restore from the file and finish under RunCheckpointed.
	sp2, eng2 := toyEngine(mapspace.RubyS)
	s2 := NewRandom(sp2, eng2, Options{Seed: 3, MaxEvaluations: 2000})
	resumed, err := RestoreFromFile(context.Background(), s2, path)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("checkpoint file not picked up")
	}
	got, err := RunCheckpointed(context.Background(), s2, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "random", got, want)

	// The final snapshot is marked done: restoring it is a finished search.
	sp3, eng3 := toyEngine(mapspace.RubyS)
	s3 := NewRandom(sp3, eng3, Options{Seed: 3, MaxEvaluations: 2000})
	if resumed, err = RestoreFromFile(context.Background(), s3, path); err != nil || !resumed {
		t.Fatalf("final snapshot restore: resumed=%v err=%v", resumed, err)
	}
	done, err := s3.Step(context.Background())
	if err != nil || !done {
		t.Fatalf("restored finished search: done=%v err=%v", done, err)
	}
	sameResult(t, "random-final", s3.Result(), want)
}

func TestRestoreFromFileMissingIsFreshStart(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	s := NewRandom(sp, eng, Options{Seed: 1})
	resumed, err := RestoreFromFile(context.Background(), s, filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || resumed {
		t.Fatalf("missing file: resumed=%v err=%v", resumed, err)
	}
}

func TestRestoreRejectsWrongAlgo(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	st, err := NewRandom(sp, eng, Options{Seed: 1}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewHillClimb(sp, eng, Options{Seed: 1, Warmup: 10, Patience: 10}).Restore(st); err == nil {
		t.Error("hill-climb accepted a random snapshot")
	}
	if err := NewExhaustive(sp, eng, Options{}, 0).Restore(st); err == nil {
		t.Error("exhaustive accepted a random snapshot")
	}
}

// The resumable exhaustive searcher must agree exactly with the one-shot
// Exhaustive entry point (same enumeration order, same incumbent).
func TestResumableExhaustiveMatchesOneShot(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	want := Exhaustive(context.Background(), sp, engine.New(ev), Options{}, 0)

	sp2, eng2 := toyEngine(mapspace.RubyS)
	got := runToCompletion(t, NewExhaustive(sp2, eng2, Options{}, 0))
	if got.Evaluated != want.Evaluated || got.Valid != want.Valid {
		t.Errorf("counters (%d, %d), want (%d, %d)", got.Evaluated, got.Valid, want.Evaluated, want.Valid)
	}
	if got.BestCost.EDP != want.BestCost.EDP || got.BestCost.Cycles != want.BestCost.Cycles {
		t.Errorf("best cost %+v, want %+v", got.BestCost, want.BestCost)
	}
}

// The resumable random search must still find the toy optimum (sanity that
// the batch rearchitecture didn't break convergence).
func TestResumableRandomConverges(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	res := runToCompletion(t, NewRandom(sp, eng, Options{Seed: 1, MaxEvaluations: 4000}))
	if res.Best == nil {
		t.Fatal("no valid mapping found")
	}
	if res.BestCost.Cycles != 17 {
		t.Errorf("cycles = %f, want 17", res.BestCost.Cycles)
	}
}

// Checkpoint overhead must stay under 5% at the default snapshot interval
// (ISSUE acceptance). "default" pays one final snapshot per run (the 2s
// periodic interval never fires on a sub-second search); "stress" writes a
// snapshot every 1ms to show the worst case, and is expected to cost more.
func BenchmarkCheckpointOverhead(b *testing.B) {
	run := func(b *testing.B, cc CheckpointConfig) {
		for i := 0; i < b.N; i++ {
			sp, eng := toyEngine(mapspace.RubyS)
			s := NewRandom(sp, eng, Options{Seed: 5, MaxEvaluations: 200000, ConsecutiveNoImprove: -1})
			if _, err := RunCheckpointed(context.Background(), s, cc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, CheckpointConfig{}) })
	b.Run("default", func(b *testing.B) {
		run(b, CheckpointConfig{Path: filepath.Join(b.TempDir(), "cp.json")})
	})
	b.Run("stress", func(b *testing.B) {
		run(b, CheckpointConfig{Path: filepath.Join(b.TempDir(), "cp.json"), Interval: 1e6})
	})
}

// Restoring a snapshot with a corrupt incumbent fails loudly instead of
// silently restarting.
func TestRestoreRejectsCorruptIncumbent(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	s := NewRandom(sp, eng, Options{Seed: 9, MaxEvaluations: 300})
	runToCompletion(t, s)
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Best == nil {
		t.Skip("no incumbent found")
	}
	st.Best = []byte(`{"factors":{}}`)
	s2sp, s2eng := toyEngine(mapspace.RubyS)
	if err := NewRandom(s2sp, s2eng, Options{Seed: 9}).Restore(st); err == nil {
		t.Error("corrupt incumbent accepted")
	}
}
