package config

import (
	"encoding/json"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapspace"
	"ruby/internal/search"
	"ruby/internal/workload"
)

// TestSpellingsAgree pins the union of the names every entry point has
// accepted: rubymap, rubysuite, rubycoord, /v1/search, /v1/jobs,
// /v1/network and dist all parse through these three functions, so each
// spelling means the same thing everywhere.
func TestSpellingsAgree(t *testing.T) {
	kinds := map[string]mapspace.Kind{
		"pfm": mapspace.PFM, "perfect": mapspace.PFM,
		"ruby":   mapspace.Ruby,
		"ruby-s": mapspace.RubyS, "rubys": mapspace.RubyS, "s": mapspace.RubyS, "": mapspace.RubyS,
		"ruby-t": mapspace.RubyT, "rubyt": mapspace.RubyT, "t": mapspace.RubyT,
	}
	for name, want := range kinds {
		for _, spelling := range []string{name, " " + name + " ", mixedCase(name)} {
			if got, err := mapspace.ParseKind(spelling); err != nil || got != want {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", spelling, got, err, want)
			}
		}
	}

	objectives := map[string]search.Objective{
		"": search.ObjectiveEDP, "edp": search.ObjectiveEDP,
		"energy": search.ObjectiveEnergy,
		"delay":  search.ObjectiveDelay, "latency": search.ObjectiveDelay, "cycles": search.ObjectiveDelay,
	}
	for name, want := range objectives {
		for _, spelling := range []string{name, mixedCase(name), want.String()} {
			if got, err := search.ParseObjective(spelling); err != nil || got != want {
				t.Errorf("ParseObjective(%q) = %v, %v; want %v", spelling, got, err, want)
			}
		}
	}

	conv, err := workload.Conv2D(workload.Conv2DParams{Name: "c", N: 1, M: 8, C: 4, P: 6, Q: 6, R: 3, S: 3})
	if err != nil {
		t.Fatal(err)
	}
	presets := []struct {
		spec  string
		lanes int64
		df    arch.Dataflow
		cons  mapspace.Constraints
	}{
		{"eyeriss:14x12:128", 168, arch.DataflowRowStationary, mapspace.EyerissRowStationary(conv)},
		{"simba:15:4x4", 240, arch.DataflowSimba, mapspace.SimbaDataflow(conv)},
		{"toy:6:512", 6, arch.DataflowNone, mapspace.Constraints{}},
	}
	for _, p := range presets {
		for _, spelling := range []string{p.spec, mixedCase(p.spec)} {
			a, df, err := arch.ParsePreset(spelling)
			if err != nil || a.TotalLanes() != p.lanes || df != p.df {
				t.Errorf("ParsePreset(%q) = %v lanes, dataflow %v, %v; want %d, %v", spelling, a, df, err, p.lanes, p.df)
			}
		}
		if got := mapspace.PresetConstraints(p.df)(conv); !reflect.DeepEqual(got, p.cons) {
			t.Errorf("PresetConstraints(%v) = %+v, want %+v", p.df, got, p.cons)
		}
	}

	// Unknown names fail with one text per kind of name.
	for _, c := range []struct {
		err  func() error
		want string
	}{
		{func() error { _, err := mapspace.ParseKind("zigzag"); return err },
			`unknown mapspace "zigzag" (want pfm|ruby|ruby-s|ruby-t)`},
		{func() error { _, err := search.ParseObjective("area"); return err },
			`unknown objective "area" (want edp|energy|delay)`},
		{func() error { _, _, err := arch.ParsePreset("tpu:1:2"); return err },
			`bad arch spec "tpu:1:2" (want eyeriss:COLSxROWS:GLBKiB, simba:PES:UNITSxWIDTH or toy:PES:SPADWORDS)`},
	} {
		if err := c.err(); err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
	for _, bad := range []string{"eyeriss:-1x12:128", "toy:6:-1", "simba:15:4x4:1"} {
		if _, _, err := arch.ParsePreset(bad); err == nil {
			t.Errorf("ParsePreset(%q) succeeded", bad)
		}
	}
}

// mixedCase upper-cases every other letter.
func mixedCase(s string) string {
	b := []byte(s)
	for i := 0; i < len(b); i += 2 {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

const (
	toyWorkloadJSON = `{"name": "d100", "type": "vector1d", "d": 100}`
	toyArchJSON     = `{"name": "toy", "levels": [{"name": "DRAM"},
	  {"name": "GLB", "capacity_words": 512, "fanout": {"x": 6, "multicast": true}}]}`
)

func TestProblemResolve(t *testing.T) {
	p := Problem{
		Workload: json.RawMessage(toyWorkloadJSON), Arch: json.RawMessage(toyArchJSON),
		Constraints: json.RawMessage(`{"fixed_perms": true}`), Mapspace: "T",
	}
	ev, sp, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != mapspace.RubyT || !sp.Cons.FixedPerms || sp.Work != ev.Work || sp.Arch != ev.Arch {
		t.Errorf("resolved space %v, constraints %+v", sp.Kind, sp.Cons)
	}
	for _, bad := range []Problem{
		{Arch: p.Arch},
		{Workload: p.Workload},
		{Workload: p.Workload, Arch: p.Arch, Mapspace: "zigzag"},
		{Workload: p.Workload, Arch: p.Arch, Constraints: json.RawMessage(`[`)},
		{Workload: json.RawMessage(`{"type": "nope"}`), Arch: p.Arch},
	} {
		if _, _, err := bad.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) succeeded", bad)
		}
	}
}

// FuzzProblemSpec decodes arbitrary bytes as a /v1 search request and
// resolves its problem and objective, as every /v1 search handler does:
// neither step may panic, and a nil error must come with a usable space.
func FuzzProblemSpec(f *testing.F) {
	f.Add([]byte(`{"workload": ` + toyWorkloadJSON + `, "arch": ` + toyArchJSON + `, "mapspace": "s", "objective": "cycles"}`))
	f.Add([]byte(`{"workload": {"name": "mm", "type": "matmul", "matmul": {"m": 12, "n": 6, "k": 4}}, "arch": ` + toyArchJSON +
		`, "constraints": {"spatial_x": ["M"], "fixed_perms": true}, "mapspace": "perfect", "shard": {"index": 1, "chain_lo": 0, "chain_hi": 2}}`))
	f.Add([]byte(`{"workload": {"name": "e", "type": "einsum", "einsum": {"expr": "O[m] += I[k] * W[m,k]", "bounds": {"m": 8, "k": 4}}}, "arch": ` + toyArchJSON + `}`))
	f.Add([]byte(`{"workload": {"type": "vector1d", "d": 0}, "arch": {"name": "a", "levels": [{"name": "L"}]}}`))
	f.Add([]byte(`{"mapspace": 3}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SearchRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		ev, sp, err := req.Resolve()
		if err == nil && (ev == nil || sp == nil) {
			t.Fatal("Resolve returned a nil evaluator or space with a nil error")
		}
		_, _ = search.ParseObjective(req.Objective)
	})
}
