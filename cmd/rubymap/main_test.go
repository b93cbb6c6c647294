package main

import (
	"context"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/engine"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/search"
	"ruby/internal/workload"
)

func TestParseConv(t *testing.T) {
	w, err := parseConv("n=1,m=96,c=48,p=27,q=27,r=5,s=5")
	if err != nil {
		t.Fatal(err)
	}
	if w.Bound("M") != 96 || w.Bound("R") != 5 {
		t.Error("bounds wrong")
	}
	w2, err := parseConv("n=1,m=4,c=3,p=8,q=8,r=3,s=3,sh=2,sw=2")
	if err != nil {
		t.Fatal(err)
	}
	in := w2.Tensor("I")
	if v := in.TileVolume(map[string]int{"P": 8, "R": 3}); v != 17 {
		t.Errorf("stride lost: halo = %d, want 17", v)
	}
	for _, bad := range []string{"m=", "m=x", "z=4", "m4"} {
		if _, err := parseConv(bad); err == nil {
			t.Errorf("parseConv(%q) succeeded", bad)
		}
	}
}

func TestParseMatmul(t *testing.T) {
	w, err := parseMatmul("1024x16x512")
	if err != nil {
		t.Fatal(err)
	}
	if w.MACs() != 1024*16*512 {
		t.Error("MACs wrong")
	}
	for _, bad := range []string{"1024x16", "ax2x3", "1x2x3x4"} {
		if _, err := parseMatmul(bad); err == nil {
			t.Errorf("parseMatmul(%q) succeeded", bad)
		}
	}
}

// The -arch, -mapspace and -objective values go through the shared parsers;
// TestResolveArch, TestResolveKind and TestResolveObjective pin the
// spellings rubymap has always accepted.
func TestResolveArch(t *testing.T) {
	a, _, err := arch.ParsePreset("eyeriss:14x12:128")
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalLanes() != 168 {
		t.Error("eyeriss lanes wrong")
	}
	s, _, err := arch.ParsePreset("simba:15:4x4")
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalLanes() != 240 {
		t.Error("simba lanes wrong")
	}
	toy, _, err := arch.ParsePreset("toy:16:512")
	if err != nil {
		t.Fatal(err)
	}
	if toy.TotalLanes() != 16 {
		t.Error("toy lanes wrong")
	}
	for _, bad := range []string{"tpu:1:2", "eyeriss:14:128", "eyeriss:axb:128", "simba:15:44", "toy:16"} {
		if _, _, err := arch.ParsePreset(bad); err == nil {
			t.Errorf("ParsePreset(%q) succeeded", bad)
		}
	}
}

func TestResolveKind(t *testing.T) {
	cases := map[string]mapspace.Kind{
		"pfm": mapspace.PFM, "perfect": mapspace.PFM,
		"ruby": mapspace.Ruby, "Ruby-S": mapspace.RubyS, "rubys": mapspace.RubyS,
		"ruby-t": mapspace.RubyT, "T": mapspace.RubyT,
	}
	for s, want := range cases {
		got, err := mapspace.ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := mapspace.ParseKind("zigzag"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestResolveWorkload(t *testing.T) {
	if _, err := resolveWorkload("", "", ""); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := resolveWorkload("no_such_layer", "", ""); err == nil {
		t.Error("unknown layer accepted")
	}
	w, err := resolveWorkload("fc1000", "", "")
	if err != nil || w.MACs() != 1000*2048 {
		t.Errorf("fc1000: %v, %v", w, err)
	}
	if w, err := resolveWorkload("alexnet_conv2", "", ""); err != nil || w.Bound("Q") != 27 {
		t.Errorf("alexnet: %v", err)
	}
}

func TestResolveObjective(t *testing.T) {
	for s, want := range map[string]search.Objective{
		"edp": search.ObjectiveEDP, "": search.ObjectiveEDP,
		"energy": search.ObjectiveEnergy,
		"delay":  search.ObjectiveDelay, "latency": search.ObjectiveDelay,
	} {
		got, err := search.ParseObjective(s)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := search.ParseObjective("area"); err == nil {
		t.Error("unknown objective accepted")
	}
}

// Every search.Algorithms name runs through search.Run with the options
// main builds from -evals and -no-improve, so none spends more than -evals
// (genetic and anneal once ran budgets of their own).
func TestRunOneShotHonorsEvals(t *testing.T) {
	w := workload.MustMatmul("mm", 96, 96, 96)
	a := arch.EyerissLike(14, 12, 128)
	cons := mapspace.EyerissRowStationary(w)
	sp := mapspace.New(w, a, mapspace.RubyS, cons)
	ev := nest.MustEvaluator(w, a)
	const evals = 500
	for _, algo := range search.Algorithms {
		opt := search.Options{Seed: 1, Threads: 2, MaxEvaluations: evals, ConsecutiveNoImprove: 3000}
		res := runOneShot(context.Background(), algo, sp, engine.New(ev), ev, mapspace.RubyS, cons, opt)
		if res.Evaluated > evals || res.Evaluated == 0 {
			t.Errorf("-search %s -evals %d spent %d evaluations", algo, evals, res.Evaluated)
		}
	}
}
