package nest_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ruby/internal/arch"
	"ruby/internal/mapping"
	"ruby/internal/mapspace"
	"ruby/internal/nest"
	"ruby/internal/workload"
	"ruby/internal/workloads"
)

// planCase is one (arch, workload, constraints) triple the differential
// suite exercises.
type planCase struct {
	name string
	a    *arch.Arch
	w    *workload.Workload
	cons func(*workload.Workload) mapspace.Constraints
}

func planCases() []planCase {
	resnet := workloads.ResNet50()
	toy := workload.MustMatmul("toy", 24, 36, 50)
	return []planCase{
		{
			name: "eyeriss/resnet-conv3x3",
			a:    arch.EyerissLike(14, 12, 128),
			w:    resnet[3].Work,
			cons: mapspace.EyerissRowStationary,
		},
		{
			name: "simba/resnet-pointwise",
			a:    arch.SimbaLike(15, 4, 4),
			w:    resnet[1].Work,
			cons: mapspace.SimbaDataflow,
		},
		{
			name: "toylinear/matmul",
			a:    arch.ToyLinear(9, 512),
			w:    toy,
			cons: func(*workload.Workload) mapspace.Constraints {
				return mapspace.Constraints{FixedPerms: true}
			},
		},
	}
}

// TestPlanMatchesLegacy is the differential property test pinning the
// compiled plan to the legacy string-keyed evaluator bit for bit: over
// random mappings from every bundled architecture family and factorization
// kind, every Cost field — including invalid Reasons — must be exactly
// equal, not merely close.
func TestPlanMatchesLegacy(t *testing.T) {
	const perCombo = 120 // x 3 cases x 3 kinds = 1080 mappings minimum
	total := 0
	validByCase := map[string]int{}
	validByKind := map[mapspace.Kind]int{}
	for _, tc := range planCases() {
		for _, kind := range []mapspace.Kind{mapspace.PFM, mapspace.Ruby, mapspace.RubyS} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(t *testing.T) {
				ev := nest.MustEvaluator(tc.w, tc.a)
				cons := tc.cons(tc.w)
				cons.ExploreBypass = true
				sp := mapspace.New(tc.w, tc.a, kind, cons)
				rng := rand.New(rand.NewSource(7))
				valid := 0
				// Sample at least perCombo mappings, then keep going (bounded)
				// until a handful of fully valid ones were compared too. Some
				// combos (full Ruby on a large conv layer) reject essentially
				// every random sample on capacity — those still contribute
				// invalid-verdict coverage, and the per-case / per-kind
				// assertions below guarantee valid coverage overall.
				for i := 0; i < perCombo || (valid < 5 && i < perCombo+2000); i++ {
					m := sp.Sample(rng)
					got := ev.Evaluate(m)
					want := ev.EvaluateLegacy(m)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("mapping %d: compiled %+v\nlegacy %+v", i, got, want)
					}
					if got.Valid {
						valid++
					}
					total++
				}
				validByCase[tc.name] += valid
				validByKind[kind] += valid
			})
		}
	}
	if total < 1000 {
		t.Fatalf("differential suite covered %d mappings, want >= 1000", total)
	}
	for name, v := range validByCase {
		if v == 0 {
			t.Errorf("case %s: no valid mappings compared", name)
		}
	}
	for kind, v := range validByKind {
		if v == 0 {
			t.Errorf("kind %s: no valid mappings compared", kind)
		}
	}
}

// TestPlanMatchesLegacyInvalid pins the invalid-mapping verdicts: the
// compiled path must produce the exact legacy Reason strings for every
// structural-rejection stage.
func TestPlanMatchesLegacyInvalid(t *testing.T) {
	tc := planCases()[0]
	ev := nest.MustEvaluator(tc.w, tc.a)
	sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, tc.cons(tc.w))
	rng := rand.New(rand.NewSource(11))
	base := sp.Sample(rng)

	mutate := func(f func(*mapping.Mapping)) *mapping.Mapping {
		m := base.Clone()
		f(m)
		return m
	}
	dim := tc.w.Dims[0].Name
	cases := map[string]*mapping.Mapping{
		"missing-dim":       mutate(func(m *mapping.Mapping) { delete(m.Factors, dim) }),
		"short-chain":       mutate(func(m *mapping.Mapping) { m.Factors[dim] = m.Factors[dim][:2] }),
		"zero-factor":       mutate(func(m *mapping.Mapping) { m.Factors[dim][1] = 0 }),
		"overshoot-factor":  mutate(func(m *mapping.Mapping) { m.Factors[dim][0] = tc.w.Dims[0].Bound * 64 }),
		"leftover-residual": mutate(func(m *mapping.Mapping) { m.Factors[dim][0] = 1 }),
		"short-perm":        mutate(func(m *mapping.Mapping) { m.Perms[1] = m.Perms[1][:3] }),
		"dup-perm": mutate(func(m *mapping.Mapping) {
			m.Perms[1] = append([]string(nil), m.Perms[1]...)
			m.Perms[1][0] = m.Perms[1][1]
		}),
		"missing-perms": mutate(func(m *mapping.Mapping) { m.Perms = m.Perms[:1] }),
	}
	for name, m := range cases {
		got := ev.Evaluate(m)
		want := ev.EvaluateLegacy(m)
		if got.Valid || want.Valid {
			t.Errorf("%s: expected invalid, compiled=%v legacy=%v", name, got.Valid, want.Valid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled %+v\nlegacy %+v", name, got, want)
		}
	}
}

// TestPlanConcurrent drives one shared Evaluator (one plan) from many
// goroutines at once — run under -race, this checks the plan is truly
// immutable and the scratch pooling is sound.
func TestPlanConcurrent(t *testing.T) {
	tc := planCases()[0]
	ev := nest.MustEvaluator(tc.w, tc.a)
	sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, tc.cons(tc.w))

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			plan := ev.Plan()
			scr := plan.NewScratch()
			smp := sp.NewSampler()
			m := &mapping.Mapping{}
			for i := 0; i < 200; i++ {
				smp.SampleInto(rng, m)
				got := plan.EvaluateMapping(m, scr)
				want := ev.EvaluateLegacy(m)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d mapping %d: compiled != legacy", seed, i)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// sampleValid draws mappings until one passes the full model.
func sampleValid(t *testing.T, sp *mapspace.Space, ev *nest.Evaluator, seed int64) *mapping.Mapping {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10000; i++ {
		m := sp.Sample(rng)
		if c := ev.Evaluate(m); c.Valid {
			return m
		}
	}
	t.Fatal("no valid mapping found")
	return nil
}

// TestEvaluateAllocationFree is the allocation-regression guard: on a warmed
// plan, the scratch-backed kernel must not allocate at all, and the
// detaching wrappers must allocate exactly the documented constant (one
// backing array for the returned Cost's per-level slices).
func TestEvaluateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tc := planCases()[0]
	ev := nest.MustEvaluator(tc.w, tc.a)
	sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, tc.cons(tc.w))
	m := sampleValid(t, sp, ev, 3)

	plan := ev.Plan()
	scr := plan.NewScratch()
	dm, err := m.Dense(tc.w, tc.a, ev.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if c := plan.EvaluateInto(dm, scr); !c.Valid {
		t.Fatalf("warmup evaluation invalid: %s", c.Reason)
	}

	if n := testing.AllocsPerRun(200, func() {
		plan.EvaluateInto(dm, scr)
	}); n != 0 {
		t.Errorf("EvaluateInto allocates %v/op, want 0", n)
	}
	// Evaluator.Evaluate detaches its result: exactly one allocation (the
	// shared backing array behind LevelReads/LevelWrites/LevelEnergyPJ).
	if n := testing.AllocsPerRun(200, func() {
		ev.Evaluate(m)
	}); n > 1 {
		t.Errorf("Evaluate allocates %v/op, want <= 1", n)
	}
}

// TestFusedProducerStepAllocationFree guards the fused producer search's
// steady state: one step — propose a move, apply it in place, price the
// producer against the bound consumer, undo — allocates nothing. The steps
// are replayed from a warmed RNG so every invalid verdict they meet is
// already interned.
func TestFusedProducerStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	bind, err := workloads.ResNet50Network().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.EyerissLike(14, 12, 128)
	fe, err := nest.NewFusedEvaluator(bind, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	csp := mapspace.New(bind.Cons.Work, a, mapspace.RubyS, mapspace.EyerissRowStationary(bind.Cons.Work))
	rng := rand.New(rand.NewSource(4))
	var psp *mapspace.Space
	pm := &mapping.Mapping{}
	for i := 0; i < 20000 && psp == nil; i++ {
		cm := csp.Sample(rng)
		if !fe.BindConsumer(cm) {
			continue
		}
		ft, err := mapspace.FuseTileOf(bind, a, cm, 1)
		if err != nil {
			t.Fatal(err)
		}
		cons := mapspace.EyerissRowStationary(bind.Prod.Work)
		cons.FuseTile, cons.FuseLevel = ft, 1
		sp := mapspace.New(bind.Prod.Work, a, mapspace.RubyS, cons)
		smp := sp.NewSampler()
		for j := 0; j < 200; j++ {
			smp.SampleInto(rng, pm)
			if fe.EvaluateProducerInto(pm).Valid {
				psp = sp
				break
			}
		}
	}
	if psp == nil {
		t.Fatal("no fused-valid pair sampled")
	}
	mu := psp.NewMutator()
	var valid int
	step := func() {
		mv := mu.Propose(rng)
		mv.Apply(pm)
		if fe.EvaluateProducerInto(pm).Valid {
			valid++
		}
		mv.Undo(pm)
	}
	rng.Seed(9)
	for i := 0; i < 1000; i++ {
		step()
	}
	if valid == 0 || valid == 1000 {
		t.Fatalf("%d of 1000 steps valid: want both verdicts", valid)
	}
	// One measured run of 400 steps, so even a rare allocation counts
	// (AllocsPerRun truncates its per-run average). Its warm-up run replays
	// steps 1-400 and the measured run steps 401-800.
	rng.Seed(9)
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 400; i++ {
			step()
		}
	}); n != 0 {
		t.Errorf("400 fused producer steps allocate %v times, want 0", n)
	}
}

// TestCostClone checks the detach contract EvaluateInto callers rely on.
func TestCostClone(t *testing.T) {
	tc := planCases()[0]
	ev := nest.MustEvaluator(tc.w, tc.a)
	sp := mapspace.New(tc.w, tc.a, mapspace.RubyS, tc.cons(tc.w))
	m := sampleValid(t, sp, ev, 5)

	plan := ev.Plan()
	scr := plan.NewScratch()
	dm, err := m.Dense(tc.w, tc.a, ev.Slots)
	if err != nil {
		t.Fatal(err)
	}
	shared := plan.EvaluateInto(dm, scr)
	kept := shared.Clone()
	if !reflect.DeepEqual(shared, kept) {
		t.Fatal("Clone changed the cost value")
	}
	// A second evaluation overwrites the shared slices but not the clone.
	scr2 := plan.EvaluateInto(dm, scr)
	_ = scr2
	if !reflect.DeepEqual(kept, kept.Clone()) {
		t.Fatal("clone unstable")
	}
	if &shared.LevelReads[0] != &scr2.LevelReads[0] {
		t.Fatal("EvaluateInto did not reuse scratch-backed slices")
	}
	if &kept.LevelReads[0] == &shared.LevelReads[0] {
		t.Fatal("Clone still aliases the scratch")
	}
}
