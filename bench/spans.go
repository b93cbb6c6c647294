package main

import (
	"sort"
	"strings"

	"ruby/internal/obs"
)

// spanStat is the time a group of spans accounts for.
type spanStat struct {
	Count int
	// Total is the summed span duration in microseconds.
	Total int64
	// Self is Total minus, per span, the part of its interval that its
	// child spans cover. Children may run concurrently (a suite's layers
	// under Parallel: 2), so the covered part is the union of the child
	// intervals, not their sum: self time is never negative.
	Self int64
}

// spanGroup names the group a span is summarized under. The per-instance
// layer and segment spans ("layer:conv1", "segment:a->b") are grouped by
// prefix; every other span name is its own group.
func spanGroup(name string) string {
	for _, p := range []string{"layer:", "segment:"} {
		if strings.HasPrefix(name, p) {
			return p + "*"
		}
	}
	return name
}

// summarizeSpans turns a recorder's spans into total and self time per span
// group.
func summarizeSpans(spans []obs.SpanRecord) map[string]spanStat {
	children := make(map[uint64][]obs.SpanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		g := spanGroup(s.Name)
		st := out[g]
		st.Count++
		st.Total += s.Dur
		st.Self += s.Dur - covered(s, children[s.ID])
		out[g] = st
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers, in microseconds.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	lo, hi := parent.Start, parent.Start+parent.Dur
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	sum, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return sum
}
