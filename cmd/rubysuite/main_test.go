package main

import (
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapspace"
)

// The -arch and -mapspaces values go through the shared parsers; these
// tests pin the spellings rubysuite has always accepted.

func TestParseArchSpec(t *testing.T) {
	a, df, err := arch.ParsePreset("eyeriss:14x12:128")
	if err != nil || a.TotalLanes() != 168 || df != arch.DataflowRowStationary {
		t.Errorf("eyeriss parse: %v, %v, %v", a, df, err)
	}
	s, df, err := arch.ParsePreset("simba:9:3x3")
	if err != nil || s.TotalLanes() != 81 || df != arch.DataflowSimba {
		t.Errorf("simba parse: %v, %v, %v", s, df, err)
	}
	for _, bad := range []string{"eyeriss:14x12", "foo:1:2", "eyeriss:ax12:128", "simba:9:33"} {
		if _, _, err := arch.ParsePreset(bad); err == nil {
			t.Errorf("ParsePreset(%q) succeeded", bad)
		}
	}
}

func TestParseKind(t *testing.T) {
	if k, err := mapspace.ParseKind(" ruby-s "); err != nil || k != mapspace.RubyS {
		t.Errorf("ParseKind: %v, %v", k, err)
	}
	if _, err := mapspace.ParseKind("zigzag"); err == nil {
		t.Error("unknown kind accepted")
	}
}
