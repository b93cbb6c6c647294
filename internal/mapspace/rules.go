package mapspace

import "ruby/internal/mapping"

// Rule flags in a sampleRules table: per (dimension, slot) pair, and one
// per-dimension flag.
const (
	// ruleSpatial marks a parFor slot: its draws consume the slot's shared
	// fanout budget.
	ruleSpatial uint8 = 1 << iota
	// ruleImperfect marks a slot where the kind relaxes divisibility.
	ruleImperfect
	// ruleAllowed marks a spatial slot the dimension may take factors > 1
	// on (SpatialX/SpatialY).
	ruleAllowed
	// ruleRequired marks a spatial slot the dimension must take a factor
	// > 1 on when it can (RequireSpatialX/RequireSpatialY).
	ruleRequired
	// ruleReserve marks a slot inner to one where the dimension is
	// required: its draw must leave a residual of at least 2.
	ruleReserve
	// dimRequired marks a dimension listed in RequireSpatialX or
	// RequireSpatialY, which the sampler visits first.
	dimRequired
)

// sampleRules is a space's sampling rules compiled once, by New, from its
// slot list, kind and constraint lists, and read-only after: every draw path
// (Sampler.SampleInto, Space.Sample, the fused chain draw and
// Mutator.ProposeChainID) looks rules up here by dimension id instead of
// scanning the constraint string lists per factor. The capacity screen
// that stops an overflowing draw early is not a rule here: it runs the
// model's own capacity check on the compiled plan after each drawn
// dimension (Sampler.SampleScreened), so the capacity semantics live in
// nest alone and a space compiles nothing for it. The table is small (one
// byte per dimension and slot) because fused segment search builds a space
// per candidate.
type sampleRules struct {
	// flags holds one row per dimension, stride nslots+1: the rule flags of
	// each slot, then the dimension's own flags.
	flags []uint8
	// advance holds each dimension's fused advance (0 = unfused); nil when
	// the space is not fused.
	advance []int
	// anyRequired reports whether some dimension has dimRequired.
	anyRequired bool
}

// compileRules builds the space's sampling rules; s.fuseSlot must be set.
func (s *Space) compileRules() sampleRules {
	ns := len(s.slots)
	r := sampleRules{flags: make([]uint8, len(s.Work.Dims)*(ns+1))}
	if s.fuseSlot >= 0 {
		r.advance = make([]int, len(s.Work.Dims))
	}
	for di := range s.Work.Dims {
		name := s.Work.Dims[di].Name
		row := r.flags[di*(ns+1) : (di+1)*(ns+1)]
		if s.Cons.required(mapping.SpatialX, name) || s.Cons.required(mapping.SpatialY, name) {
			row[ns] = dimRequired
			r.anyRequired = true
		}
		if a, ok := s.fusedAdvance(name); ok {
			r.advance[di] = a
		}
		reserve := false
		for i, sl := range s.slots {
			var fl uint8
			if reserve {
				fl |= ruleReserve
			}
			if sl.Spatial() {
				fl |= ruleSpatial
				if s.Kind.imperfectSpatial() {
					fl |= ruleImperfect
				}
				if s.Cons.allowed(sl.Kind, name) {
					fl |= ruleAllowed
				}
				if s.Cons.required(sl.Kind, name) {
					fl |= ruleRequired
					reserve = true
				}
			} else if s.Kind.imperfectTemporal() {
				fl |= ruleImperfect
			}
			row[i] = fl
		}
	}
	return r
}

// row returns dimension di's rule flags, one per slot.
//
//ruby:hotpath
func (r *sampleRules) row(di, nslots int) []uint8 {
	return r.flags[di*(nslots+1) : di*(nslots+1)+nslots]
}

// fusedAdvance returns dimension di's fused advance, 0 when unfused.
//
//ruby:hotpath
func (r *sampleRules) fusedAdvance(di int) int {
	if r.advance == nil {
		return 0
	}
	return r.advance[di]
}

// requiredFirst stably moves the dimensions with dimRequired to the front
// of the visiting order, in place.
//
//ruby:hotpath
func (r *sampleRules) requiredFirst(order []int, nslots int) {
	k := 0
	for i, di := range order {
		if r.flags[di*(nslots+1)+nslots]&dimRequired == 0 {
			continue
		}
		copy(order[k+1:i+1], order[k:i])
		order[k] = di
		k++
	}
}
