package mapspace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// moveFixture is a bypass-exploring Eyeriss conv space, so all three move
// kinds (chain, perm, keep) are proposable.
func moveFixture() (*Space, *workload.Workload, *arch.Arch) {
	w := workload.MustConv2D(workload.Conv2DParams{N: 1, M: 16, C: 16, P: 14, Q: 14, R: 3, S: 3})
	a := arch.EyerissLike(14, 12, 128)
	return New(w, a, RubyS, Constraints{ExploreBypass: true}), w, a
}

// sampleLowered draws a mapping and forces its dense lowering into the memo,
// the state Move.Apply patches in place.
func sampleLowered(t *testing.T, sp *Space, rng *rand.Rand) *mapping.Mapping {
	t.Helper()
	for i := 0; i < 1000; i++ {
		m := sp.Sample(rng)
		if _, err := m.Dense(sp.Work, sp.Arch, sp.slots); err == nil {
			return m
		}
	}
	t.Fatal("no lowerable sample")
	return nil
}

// requireMoveDenseMatchesFresh checks that the in-place-patched lowering and
// memoized key agree with a from-scratch lowering of the same mapping state.
func requireMoveDenseMatchesFresh(t *testing.T, sp *Space, m *mapping.Mapping) {
	t.Helper()
	dn := m.UpdatableDense(sp.Work, sp.Arch, sp.slots)
	if dn == nil {
		t.Fatal("dense memo dropped by a patching move")
	}
	c := m.Clone()
	fresh, err := c.Dense(sp.Work, sp.Arch, sp.slots)
	if err != nil {
		t.Fatalf("fresh lowering of moved mapping: %v", err)
	}
	if dn.NDims != fresh.NDims || dn.NSlots != fresh.NSlots ||
		!reflect.DeepEqual(dn.Cum, fresh.Cum) || !reflect.DeepEqual(dn.Perm, fresh.Perm) {
		t.Fatal("patched dense lowering diverged from fresh densify")
	}
	if len(dn.KeepMask) != len(fresh.KeepMask) {
		t.Fatalf("KeepMask = %v, fresh %v", dn.KeepMask, fresh.KeepMask)
	}
	for i := range dn.KeepMask {
		if dn.KeepMask[i] != fresh.KeepMask[i] {
			t.Fatalf("KeepMask = %v, fresh %v", dn.KeepMask, fresh.KeepMask)
		}
	}
	if got, want := m.Key(sp.Work, sp.slots), c.Key(sp.Work, sp.slots); got != want {
		t.Fatalf("key after move = %q, clone key %q", got, want)
	}
}

// TestMoveApplyUndoRoundTrip pins Undo's contract: after Apply+Undo the
// mapping is restored exactly — canonical key, serialized form (including
// bypass-override nil-ness), and the in-place-patched dense lowering all
// match the pre-move state.
func TestMoveApplyUndoRoundTrip(t *testing.T) {
	sp, w, _ := moveFixture()
	rng := rand.New(rand.NewSource(7))
	m := sampleLowered(t, sp, rng)

	key0 := m.Key(w, sp.slots)
	enc0, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	keepNil0 := m.Keep == nil

	mu := sp.NewMutator()
	check := func(name string, mv *Move) {
		t.Helper()
		mv.Apply(m)
		mv.Undo(m)
		if got := m.Key(w, sp.slots); got != key0 {
			t.Errorf("%s: key after undo = %q, want %q", name, got, key0)
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(enc, enc0) {
			t.Errorf("%s: serialized form changed across apply+undo", name)
		}
		if (m.Keep == nil) != keepNil0 {
			t.Errorf("%s: Keep nil-ness not restored", name)
		}
		requireMoveDenseMatchesFresh(t, sp, m)
	}

	for li := range sp.Arch.Levels {
		check("perm", mu.ProposePerm(rng, li))
	}
	for di := range sp.dimNames {
		check("chain", mu.ProposeChainID(rng, di))
	}
	if len(mu.bypassLvls) == 0 {
		t.Fatal("fixture has no togglable bypass pairs")
	}
	for k := range mu.bypassLvls {
		check("keep", mu.ProposeKeep(mu.bypassLvls[k], mu.bypassRoles[k]))
	}
}

// TestMoveApplyPatchesDenseLikeFresh walks a long one-way move sequence (the
// genetic-mutation usage: applied moves are never undone) and periodically
// checks the patched lowering against a from-scratch one.
func TestMoveApplyPatchesDenseLikeFresh(t *testing.T) {
	sp, _, _ := moveFixture()
	rng := rand.New(rand.NewSource(11))
	m := sampleLowered(t, sp, rng)
	mu := sp.NewMutator()
	for i := 0; i < 300; i++ {
		mu.Propose(rng).Apply(m)
		if i%25 == 0 {
			requireMoveDenseMatchesFresh(t, sp, m)
		}
	}
	requireMoveDenseMatchesFresh(t, sp, m)
}

// TestMoveApplyWithoutDenseInvalidates covers the cold path: a mapping with
// no memoized lowering is invalidated wholesale and relowers correctly.
func TestMoveApplyWithoutDenseInvalidates(t *testing.T) {
	sp, _, _ := moveFixture()
	rng := rand.New(rand.NewSource(13))
	m := sp.Sample(rng)
	m.Invalidate()
	mu := sp.NewMutator()
	mv := mu.Propose(rng)
	mv.Apply(m)
	if m.UpdatableDense(sp.Work, sp.Arch, sp.slots) != nil {
		t.Fatal("stale dense memo survived a move on an unlowered mapping")
	}
	if _, err := m.Dense(sp.Work, sp.Arch, sp.slots); err != nil {
		t.Fatalf("relowering after cold-path move: %v", err)
	}
	requireMoveDenseMatchesFresh(t, sp, m)
}

func TestMoveDoubleApplyPanics(t *testing.T) {
	sp, _, _ := moveFixture()
	rng := rand.New(rand.NewSource(17))
	m := sampleLowered(t, sp, rng)
	mv := sp.NewMutator().Propose(rng)
	mv.Apply(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second Apply did not panic")
		}
	}()
	mv.Apply(m)
}

func TestMoveUndoWithoutApplyPanics(t *testing.T) {
	sp, _, _ := moveFixture()
	rng := rand.New(rand.NewSource(19))
	m := sampleLowered(t, sp, rng)
	mv := sp.NewMutator().Propose(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Undo without Apply did not panic")
		}
	}()
	mv.Undo(m)
}

// TestMoveUndoAfterLateLowering covers a mapping first lowered between Apply
// and Undo — a freshly cloned candidate that is moved and then evaluated.
// Apply saved no dense rows then, so Undo must not patch the late lowering
// with them: afterwards the mapping must lower exactly like a fresh copy.
func TestMoveUndoAfterLateLowering(t *testing.T) {
	sp, w, _ := moveFixture()
	rng := rand.New(rand.NewSource(23))
	mu := sp.NewMutator()
	check := func(name string, propose func() *Move) {
		t.Helper()
		m := sampleLowered(t, sp, rng).Clone() // Clone drops the lowering
		key0 := m.Key(w, sp.slots)
		mv := propose()
		mv.Apply(m)
		if _, err := m.Dense(sp.Work, sp.Arch, sp.slots); err != nil {
			t.Fatalf("%s: lowering the moved mapping: %v", name, err)
		}
		mv.Undo(m)
		if got := m.Key(w, sp.slots); got != key0 {
			t.Fatalf("%s: key after undo = %q, want %q", name, got, key0)
		}
		if _, err := m.Dense(sp.Work, sp.Arch, sp.slots); err != nil {
			t.Fatalf("%s: relowering after undo: %v", name, err)
		}
		requireMoveDenseMatchesFresh(t, sp, m)
	}
	for li := range sp.Arch.Levels {
		check("perm", func() *Move { return mu.ProposePerm(rng, li) })
	}
	for di := range sp.dimNames {
		check("chain", func() *Move { return mu.ProposeChainID(rng, di) })
	}
	for k := range mu.bypassLvls {
		check("keep", func() *Move { return mu.ProposeKeepAt(k) })
	}
}
