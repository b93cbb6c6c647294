package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"ruby/internal/checkpoint"
	"ruby/internal/mapspace"
)

// RunLocal accepts every mapspace spelling the shared parser does, with the
// same meaning: "t" runs the Ruby-T space "ruby-t" names.
func TestRunLocalShortMapspace(t *testing.T) {
	run := func(kind string) *Merged {
		spec := testSpec("exhaustive")
		spec.Mapspace = kind
		_, sp, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if sp.Kind != mapspace.RubyT {
			t.Fatalf("mapspace %q resolved to %v", kind, sp.Kind)
		}
		plan, err := BuildPlan(sp, "exhaustive", 1, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunLocal(context.Background(), spec, plan)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	short, canonical := run("t"), run("ruby-t")
	if short.Best == nil || !reflect.DeepEqual(short, canonical) {
		t.Errorf("mapspace t merged %+v, ruby-t %+v", short, canonical)
	}
}

// A coordinator state file written by the previous release (when JobSpec
// was dist's own struct) loads unchanged, and its plan still matches the
// space its spec resolves to.
func TestLegacyPlanStateLoads(t *testing.T) {
	const fixture = "testdata/legacy_plan_state.json"
	st, err := LoadState(fixture)
	if err != nil {
		t.Fatal(err)
	}
	spec := st.Spec
	if spec == nil || spec.Mapspace != "perfect" || spec.Search != "exhaustive" ||
		spec.Objective != "latency" || spec.NoImprove != 50 || len(spec.Constraints) == 0 {
		t.Fatalf("spec fields lost: %+v", spec)
	}
	_, sp, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != mapspace.PFM || !sp.Cons.FixedPerms {
		t.Errorf("spec resolved to %v, constraints %+v", sp.Kind, sp.Cons)
	}
	if err := st.Plan.Validate(sp); err != nil {
		t.Fatal(err)
	}
	c, err := RestoreCoordinator(st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Shards(); v[0].Status != ShardDone || v[0].Result.Evaluated != 10 || v[1].Status != ShardPending {
		t.Errorf("shard progress lost: %+v", v)
	}

	// Saving the restored state writes the same payload bytes back.
	path := t.TempDir() + "/coord.json"
	if err := c.SaveState(path, spec); err != nil {
		t.Fatal(err)
	}
	payload := func(p string) []byte {
		var raw json.RawMessage
		if err := checkpoint.Load(p, checkpoint.KindShards, &raw); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := payload(path), payload(fixture); !bytes.Equal(got, want) {
		t.Errorf("re-saved state payload\n%s\nwant\n%s", got, want)
	}
}
