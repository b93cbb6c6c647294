package search

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ruby/internal/engine"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
)

// TestRandomExactAccounting pins the evaluation-budget fix: workers take a
// ticket and give it back on overshoot, so Evaluated equals MaxEvaluations
// exactly (the old implementation overshot by up to Threads and clamped).
func TestRandomExactAccounting(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := Random(context.Background(), sp, engine.New(ev), Options{Seed: 1, Threads: 8, MaxEvaluations: 777})
	if res.Evaluated != 777 {
		t.Errorf("Evaluated = %d, want exactly 777", res.Evaluated)
	}
}

// TestRandomCancelStopsPromptly cancels a search that would otherwise run
// a huge budget and requires it to return quickly with its best-so-far.
func TestRandomCancelStopsPromptly(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := Random(ctx, sp, engine.New(ev), Options{
		Seed: 1, Threads: 4,
		MaxEvaluations:       1 << 40,
		ConsecutiveNoImprove: 1 << 40,
	})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancelled search took %v", wall)
	}
	if res.Best == nil {
		t.Error("cancelled search lost its best-so-far")
	}
	if res.Evaluated <= 0 {
		t.Error("no evaluations recorded before cancellation")
	}
}

// TestRandomCancelledKeepsWarmStart: even with an already-cancelled
// context the warm-start incumbent is returned, never lost.
func TestRandomCancelledKeepsWarmStart(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	seed := Random(context.Background(), sp, engine.New(ev), Options{Seed: 1, Threads: 2, MaxEvaluations: 500})
	if seed.Best == nil {
		t.Fatal("seeding search found nothing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{
		Seed: 2, Threads: 2, MaxEvaluations: 1 << 40, ConsecutiveNoImprove: 1 << 40,
		WarmStart: seed.Best,
	}
	res := Random(ctx, sp, engine.New(ev), opt)
	if res.Best == nil {
		t.Fatal("warm start lost under pre-cancelled context")
	}
	if res.BestCost.EDP > seed.BestCost.EDP {
		t.Errorf("best-so-far worse than warm start: %g > %g", res.BestCost.EDP, seed.BestCost.EDP)
	}
}

// TestPopulationSearchersHonorCancel: anneal and genetic stop on a
// cancelled context and return their best-so-far.
func TestPopulationSearchersHonorCancel(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	eng := engine.New(ev)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if res := Anneal(pre, sp, eng, Options{Seed: 1, MaxEvaluations: 1 << 40, Warmup: 1 << 30}); res.Evaluated != 0 {
		t.Errorf("pre-cancelled anneal evaluated %d mappings", res.Evaluated)
	}
	if res := Genetic(pre, sp, eng, Options{Seed: 1, MaxEvaluations: 1 << 40}); res.Evaluated != 0 {
		t.Errorf("pre-cancelled genetic evaluated %d mappings", res.Evaluated)
	}

	for name, run := range map[string]func(context.Context) *Result{
		"anneal": func(ctx context.Context) *Result {
			return Anneal(ctx, sp, eng, Options{Seed: 1, MaxEvaluations: 1 << 40, Warmup: 200})
		},
		"genetic": func(ctx context.Context) *Result {
			return Genetic(ctx, sp, eng, Options{Seed: 1, MaxEvaluations: 1 << 40})
		},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		res := run(ctx)
		cancel()
		if wall := time.Since(start); wall > 5*time.Second {
			t.Errorf("%s: cancelled search took %v", name, wall)
		}
		if res.Best == nil || res.Evaluated == 0 {
			t.Errorf("%s: cancelled search lost its best-so-far (%d evaluated)", name, res.Evaluated)
		}
	}
}

// TestExhaustiveHonorsObjective pins the Objective fix: Exhaustive used to
// hardcode EDP regardless of opt.Objective.
func TestExhaustiveHonorsObjective(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)

	// Ground truth: the true minimum energy over the whole mapspace.
	minEnergy := 0.0
	sp.Enumerate(func(m *mapping.Mapping) bool {
		if c := ev.Evaluate(m); c.Valid && (minEnergy == 0 || c.EnergyPJ < minEnergy) {
			minEnergy = c.EnergyPJ
		}
		return true
	})
	if minEnergy == 0 {
		t.Fatal("no valid mapping in toy space")
	}

	res := Exhaustive(context.Background(), sp, engine.New(ev), Options{Objective: ObjectiveEnergy}, 0)
	if res.Best == nil {
		t.Fatal("no valid mapping found")
	}
	if res.BestCost.EnergyPJ != minEnergy {
		t.Errorf("energy-objective exhaustive found %g pJ, true minimum %g pJ",
			res.BestCost.EnergyPJ, minEnergy)
	}
}

// TestExhaustiveParallelMatchesSerial: batched parallel evaluation must be
// indistinguishable from a serial scan (same best, cost, counters, trace).
func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	serial := Exhaustive(context.Background(), sp, engine.New(ev), Options{Threads: 1}, 0)
	parallel := Exhaustive(context.Background(), sp, engine.New(ev), Options{Threads: 8}, 0)
	if serial.Evaluated != parallel.Evaluated || serial.Valid != parallel.Valid {
		t.Errorf("counters differ: serial %d/%d parallel %d/%d",
			serial.Valid, serial.Evaluated, parallel.Valid, parallel.Evaluated)
	}
	if !reflect.DeepEqual(serial.BestCost, parallel.BestCost) {
		t.Errorf("best cost differs: serial %+v parallel %+v", serial.BestCost, parallel.BestCost)
	}
	if len(serial.Trace) != len(parallel.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serial.Trace), len(parallel.Trace))
	}
	for i := range serial.Trace {
		if serial.Trace[i] != parallel.Trace[i] {
			t.Errorf("trace[%d] differs: %+v vs %+v", i, serial.Trace[i], parallel.Trace[i])
		}
	}
}

// TestExhaustiveCancelled: a cancelled context stops enumeration; the
// result reports only the evaluations that actually ran.
func TestExhaustiveCancelled(t *testing.T) {
	sp, ev := toy(mapspace.Ruby)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Exhaustive(ctx, sp, engine.New(ev), Options{}, 0)
	if res.Evaluated != 0 {
		t.Errorf("pre-cancelled exhaustive evaluated %d mappings", res.Evaluated)
	}
	if res.Best != nil {
		t.Errorf("pre-cancelled exhaustive produced a best mapping")
	}
}

// TestHillClimbHonorsMaxEvaluations pins the budget fix: the climb loop used
// to ignore MaxEvaluations entirely.
func TestHillClimbHonorsMaxEvaluations(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	res := HillClimb(context.Background(), sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: 100, Warmup: 50, Patience: 1 << 30})
	if res.Evaluated > 100 {
		t.Errorf("Evaluated = %d, want <= 100", res.Evaluated)
	}
}

// TestHillClimbCancelled: cancellation stops both warmup and climb.
func TestHillClimbCancelled(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := HillClimb(ctx, sp, engine.New(ev), Options{Seed: 1, Warmup: 1000, Patience: 1 << 30})
	if res.Evaluated != 0 {
		t.Errorf("pre-cancelled hill climb evaluated %d mappings", res.Evaluated)
	}
}

// TestPortfolioCancelled: a cancelled portfolio returns promptly.
func TestPortfolioCancelled(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Portfolio(ctx, sp, engine.New(ev), Options{Seed: 1, MaxEvaluations: 1 << 20})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancelled portfolio took %v", wall)
	}
}

// TestRandomCachedEngineSameResult: enabling the memo cache must not
// change the search outcome for a fixed seed — evaluation is deterministic,
// so cached and fresh costs are identical.
func TestRandomCachedEngineSameResult(t *testing.T) {
	sp, ev := toy(mapspace.RubyS)
	opt := Options{Seed: 7, Threads: 1, MaxEvaluations: 2000}
	plain := Random(context.Background(), sp, engine.New(ev), opt)
	cached := Random(context.Background(), sp, engine.Config{CacheEntries: 1 << 12}.New(ev), opt)
	if !reflect.DeepEqual(plain.BestCost, cached.BestCost) {
		t.Errorf("best cost differs with cache: %+v vs %+v", plain.BestCost, cached.BestCost)
	}
	if plain.Evaluated != cached.Evaluated || plain.Valid != cached.Valid {
		t.Errorf("counters differ with cache: %d/%d vs %d/%d",
			plain.Valid, plain.Evaluated, cached.Valid, cached.Evaluated)
	}
}
