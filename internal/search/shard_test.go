package search

import (
	"context"
	"testing"

	"ruby/internal/mapspace"
)

// TestShardedExhaustiveUnionMatchesFull checks the distributed invariant the
// coordinator relies on: exhaustive scans of the ShardLeading ranges cover,
// between them, exactly the unrestricted enumeration — same total counters,
// same best objective.
func TestShardedExhaustiveUnionMatchesFull(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	full := runToCompletion(t, NewExhaustive(sp, eng, Options{}, 0))
	if full.Best == nil {
		t.Fatal("full exhaustive scan found no valid mapping")
	}
	fullBest := Options{}.Objective.Value(&full.BestCost)

	for _, n := range []int{2, 3} {
		var evaluated, valid int64
		best, found := 0.0, false
		for _, r := range sp.ShardLeading(n) {
			res := runToCompletion(t, NewExhaustive(sp, eng, Options{Shard: r}, 0))
			evaluated += res.Evaluated
			valid += res.Valid
			if res.Best != nil {
				v := Options{}.Objective.Value(&res.BestCost)
				if !found || v < best {
					best, found = v, true
				}
			}
		}
		if evaluated != full.Evaluated || valid != full.Valid {
			t.Errorf("%d shards: counters (%d, %d), full scan (%d, %d)",
				n, evaluated, valid, full.Evaluated, full.Valid)
		}
		if !found || best != fullBest {
			t.Errorf("%d shards: merged best %v (found=%v), full scan %v", n, best, found, fullBest)
		}
	}
}

// TestExhaustiveShardKillAndResume checks a shard-restricted scan keeps the
// kill-and-resume bit-identical contract: snapshot mid-shard, restore into a
// fresh searcher with the same Shard, identical final result.
func TestExhaustiveShardKillAndResume(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	r := sp.ShardLeading(2)[1]
	opt := Options{Shard: r}

	want := runToCompletion(t, NewExhaustive(sp, eng, opt, 0))

	first := NewExhaustive(sp, eng, opt, 0)
	if done, err := first.Step(context.Background()); err != nil || done {
		t.Fatalf("first Step: done=%v err=%v", done, err)
	}
	st, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewExhaustive(sp, eng, opt, 0)
	if err := resumed.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := runToCompletion(t, resumed)
	sameResult(t, "sharded resume", got, want)
}

// TestExhaustiveShardInvalid checks an out-of-range shard surfaces as a Step
// error instead of a silent empty scan.
func TestExhaustiveShardInvalid(t *testing.T) {
	sp, eng := toyEngine(mapspace.RubyS)
	total := int(sp.ChainCount(sp.LeadingDim()))
	s := NewExhaustive(sp, eng, Options{Shard: mapspace.ChainRange{Lo: 0, Hi: total + 1}}, 0)
	if _, err := s.Step(context.Background()); err == nil {
		t.Fatal("Step with out-of-range shard: want error")
	}
}
