package mapspace

import (
	"fmt"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// shardSpace is a multi-dimensional space small enough to enumerate fully.
func shardSpace(t *testing.T) *Space {
	t.Helper()
	w := workload.MustMatmul("mm", 12, 6, 4)
	a := arch.ToyGLB(6, 512)
	return New(w, a, RubyS, Constraints{FixedPerms: true})
}

// chainKey renders a mapping's factor chains deterministically (declaration
// dimension order) for comparison across enumerators.
func chainKey(s *Space, fs map[string][]int) string {
	key := ""
	for _, d := range s.Work.Dims {
		key += fmt.Sprintf("%s=%v;", d.Name, fs[d.Name])
	}
	return key
}

func TestShardLeadingPartition(t *testing.T) {
	s := shardSpace(t)
	total := int(s.ChainCount(s.LeadingDim()))
	if total < 4 {
		t.Fatalf("toy space too small to shard: %d leading chains", total)
	}
	for _, n := range []int{1, 2, 3, total, total + 5, -1} {
		ranges := s.ShardLeading(n)
		want := n
		if want < 1 {
			want = 1
		}
		if want > total {
			want = total
		}
		if len(ranges) != want {
			t.Fatalf("ShardLeading(%d): %d ranges, want %d", n, len(ranges), want)
		}
		lo := 0
		for i, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("ShardLeading(%d): range %d starts at %d, want %d", n, i, r.Lo, lo)
			}
			size := r.Hi - r.Lo
			if size < total/want || size > total/want+1 {
				t.Fatalf("ShardLeading(%d): range %d size %d not balanced", n, i, size)
			}
			lo = r.Hi
		}
		if lo != total {
			t.Fatalf("ShardLeading(%d): ranges end at %d, want %d", n, lo, total)
		}
	}
}

func TestRestrictLeadingUnionCoversSpace(t *testing.T) {
	s := shardSpace(t)

	var full []string
	en := s.NewEnumerator()
	for m := en.Next(); m != nil; m = en.Next() {
		full = append(full, chainKey(s, m.Factors))
	}

	for _, n := range []int{2, 3, 5} {
		var sharded []string
		for _, r := range s.ShardLeading(n) {
			se := s.NewEnumerator()
			if err := se.RestrictLeading(r.Lo, r.Hi); err != nil {
				t.Fatalf("RestrictLeading(%d, %d): %v", r.Lo, r.Hi, err)
			}
			for m := se.Next(); m != nil; m = se.Next() {
				sharded = append(sharded, chainKey(s, m.Factors))
			}
		}
		if len(sharded) != len(full) {
			t.Fatalf("%d shards: %d mappings, full scan has %d", n, len(sharded), len(full))
		}
		// Contiguous leading-prefix shards preserve the full scan's order.
		for i := range full {
			if sharded[i] != full[i] {
				t.Fatalf("%d shards: mapping %d = %q, full scan has %q", n, i, sharded[i], full[i])
			}
		}
	}
}

func TestRestrictLeadingValidation(t *testing.T) {
	s := shardSpace(t)
	n := int(s.ChainCount(s.LeadingDim()))
	en := s.NewEnumerator()
	for _, bad := range [][2]int{{-1, 2}, {0, n + 1}, {3, 3}, {4, 2}} {
		if err := en.RestrictLeading(bad[0], bad[1]); err == nil {
			t.Errorf("RestrictLeading(%d, %d): want error", bad[0], bad[1])
		}
	}
	if err := en.RestrictLeading(1, 3); err != nil {
		t.Fatalf("RestrictLeading(1, 3): %v", err)
	}
	// SetIndex must reject positions outside the restricted window.
	idx := en.Index()
	idx[0] = 0
	if err := en.SetIndex(idx, false); err == nil {
		t.Error("SetIndex below the restricted range: want error")
	}
	idx[0] = 3
	if err := en.SetIndex(idx, false); err == nil {
		t.Error("SetIndex at the restricted range's end: want error")
	}
}

func TestRestrictLeadingCheckpointResume(t *testing.T) {
	s := shardSpace(t)
	ranges := s.ShardLeading(3)
	r := ranges[1]

	var want []string
	en := s.NewEnumerator()
	if err := en.RestrictLeading(r.Lo, r.Hi); err != nil {
		t.Fatal(err)
	}
	for m := en.Next(); m != nil; m = en.Next() {
		want = append(want, chainKey(s, m.Factors))
	}
	if len(want) < 4 {
		t.Fatalf("shard too small: %d mappings", len(want))
	}

	// Scan half the shard, snapshot the odometer, resume on a fresh
	// enumerator, and check the tail matches the uninterrupted scan.
	first := s.NewEnumerator()
	if err := first.RestrictLeading(r.Lo, r.Hi); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < len(want)/2; i++ {
		got = append(got, chainKey(s, first.Next().Factors))
	}
	idx, done := first.Index(), first.Done()

	resumed := s.NewEnumerator()
	if err := resumed.RestrictLeading(r.Lo, r.Hi); err != nil {
		t.Fatal(err)
	}
	if err := resumed.SetIndex(idx, done); err != nil {
		t.Fatalf("SetIndex mid-shard: %v", err)
	}
	for m := resumed.Next(); m != nil; m = resumed.Next() {
		got = append(got, chainKey(s, m.Factors))
	}
	if len(got) != len(want) {
		t.Fatalf("resumed shard scan: %d mappings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed shard scan diverges at %d: %q != %q", i, got[i], want[i])
		}
	}
}

// NextInto rewrites one reused mapping through exactly the sequence Next
// produces — unrestricted, restricted to a shard, and after a SetIndex
// rewind — and lowers it afresh each time, without allocating once warm.
func TestNextIntoMatchesNext(t *testing.T) {
	s := shardSpace(t)
	for _, r := range append([]ChainRange{{}}, s.ShardLeading(3)...) {
		ref, en := s.NewEnumerator(), s.NewEnumerator()
		if !r.Empty() {
			if err := ref.RestrictLeading(r.Lo, r.Hi); err != nil {
				t.Fatal(err)
			}
			if err := en.RestrictLeading(r.Lo, r.Hi); err != nil {
				t.Fatal(err)
			}
		}
		m := &mapping.Mapping{Factors: map[string][]int{"stale": {1}}}
		n := 0
		for want := ref.Next(); want != nil; want = ref.Next() {
			if !en.NextInto(m) {
				t.Fatalf("range %v: NextInto ended after %d mappings", r, n)
			}
			if got, w := chainKey(s, m.Factors), chainKey(s, want.Factors); got != w || len(m.Factors) != len(want.Factors) {
				t.Fatalf("range %v mapping %d: NextInto %s (%d dims), Next %s", r, n, got, len(m.Factors), w)
			}
			dm, err := m.Dense(s.Work, s.Arch, s.Slots())
			if err != nil {
				t.Fatal(err)
			}
			wd, err := want.Dense(s.Work, s.Arch, s.Slots())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dm.Cum, wd.Cum) {
				t.Fatalf("range %v mapping %d: stale lowering", r, n)
			}
			n++
		}
		if en.NextInto(m) || !en.Done() {
			t.Fatalf("range %v: NextInto continues past the end", r)
		}
	}

	// Rewind and replay without allocating.
	en, m := s.NewEnumerator(), &mapping.Mapping{}
	start := en.Index()
	en.NextInto(m)
	m.Dense(s.Work, s.Arch, s.Slots())
	allocs := testing.AllocsPerRun(10, func() {
		if err := en.SetIndex(start, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64 && en.NextInto(m); i++ {
			m.Dense(s.Work, s.Arch, s.Slots())
		}
	})
	if allocs != 0 {
		t.Errorf("warm NextInto + lowering allocates %v times per 64 mappings", allocs)
	}
}
