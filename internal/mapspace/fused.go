package mapspace

import (
	"fmt"
	"math/rand"

	"ruby/internal/arch"
	"ruby/internal/factor"
	"ruby/internal/mapping"
	"ruby/internal/workload"
)

// Fused mapspaces constrain a producer layer's tiling to the tile boundaries
// its consumer reads at, so the intermediate tensor can live at the shared
// on-chip level instead of round-tripping through DRAM. A fused dimension d
// with advance A = Cons.FuseTile[d] admits exactly the chains whose tile
// extent e at the fusion slot divides A, built from
//
//   - an inner sub-chain (slots at and below the fusion level) that factors
//     e perfectly, keeping produced tiles aligned to consumed tiles, and
//   - an outer sub-chain covering ceil(bound/e) by the kind's usual rules.
//
// Nested ceiling division composes (ceil(ceil(b/x)/y) = ceil(b/(xy))), so
// every such chain is a valid chain over the full bound; under PFM the
// extent must additionally divide the bound. The extent e is the product of
// the inner factors, so distinct extents yield disjoint chain sets and the
// fused space is counted and enumerated without duplicates.

// fusedAdvance returns the fused advance constraining dim, if any.
func (s *Space) fusedAdvance(dim string) (int, bool) {
	if s.fuseSlot < 0 {
		return 0, false
	}
	a, ok := s.Cons.FuseTile[dim]
	if !ok || a < 1 {
		return 0, false
	}
	return a, true
}

// FuseSlot returns the slot index the FuseTile constraint pins, or -1 when
// the space is not fused.
func (s *Space) FuseSlot() int { return s.fuseSlot }

// fusedExtentOK reports whether extent e is admissible for a dimension of
// the given bound: it fits the bound, and under PFM divides it. (That e
// divides the advance is the caller's loop invariant.)
func (s *Space) fusedExtentOK(e, bound int) bool {
	if e > bound {
		return false
	}
	return s.Kind != PFM || bound%e == 0
}

// innerChainSlots returns the factor slots of the fused inner region — the
// fusion slot and everything inside it, innermost-first. All slots are
// Perfect regardless of kind: the inner chain must factor the fused extent
// exactly. The fusion slot itself is exempt from MaxTemporalFactor because
// it absorbs the extent residual, like the outermost slot in an unfused
// chain.
func (s *Space) innerChainSlots(dim string) []factor.ChainSlot {
	n := len(s.slots)
	out := make([]factor.ChainSlot, n-s.fuseSlot)
	for i := s.fuseSlot; i < n; i++ {
		sl := s.slots[i]
		cs := factor.ChainSlot{Kind: factor.Perfect}
		if sl.Spatial() {
			cs.Max = sl.Fanout
			if !s.Cons.allowed(sl.Kind, dim) {
				cs.Max = 1
			}
		} else if s.Cons.MaxTemporalFactor > 0 && i != s.fuseSlot {
			cs.Max = s.Cons.MaxTemporalFactor
		}
		out[n-1-i] = cs
	}
	return out
}

// outerChainSlots returns the factor slots outside the fusion slot,
// innermost-first, under the kind's usual rules (the DRAM slot absorbs).
func (s *Space) outerChainSlots(dim string) []factor.ChainSlot {
	out := make([]factor.ChainSlot, s.fuseSlot)
	for i := 0; i < s.fuseSlot; i++ {
		sl := s.slots[i]
		cs := factor.ChainSlot{Kind: factor.Perfect}
		if sl.Spatial() {
			if s.Kind.imperfectSpatial() {
				cs.Kind = factor.Imperfect
			}
			cs.Max = sl.Fanout
			if !s.Cons.allowed(sl.Kind, dim) {
				cs.Max = 1
			}
		} else {
			if s.Kind.imperfectTemporal() {
				cs.Kind = factor.Imperfect
			}
			if s.Cons.MaxTemporalFactor > 0 && sl.Level != 0 {
				cs.Max = s.Cons.MaxTemporalFactor
			}
		}
		out[s.fuseSlot-1-i] = cs
	}
	return out
}

// fusedChainCount counts the constrained chains of a fused dimension: the
// sum over admissible extents of inner-chain count times outer-chain count.
func (s *Space) fusedChainCount(dim string, advance int) uint64 {
	b := s.Work.Bound(dim)
	inner := s.innerChainSlots(dim)
	outer := s.outerChainSlots(dim)
	var total uint64
	for _, e := range s.divisors(advance) {
		if !s.fusedExtentOK(e, b) {
			continue
		}
		total += factor.CountChains(e, inner) * factor.CountChains(factor.CeilDiv(b, e), outer)
	}
	return total
}

// enumerateFusedChains yields the fused dimension's chains innermost-first:
// extents ascending, inner chains major, outer chains minor. The yielded
// slice is reused; retain with a copy.
func (s *Space) enumerateFusedChains(dim string, advance int, yield func(fs []int) bool) {
	b := s.Work.Bound(dim)
	n := len(s.slots)
	inner := s.innerChainSlots(dim)
	outer := s.outerChainSlots(dim)
	buf := make([]int, n)
	cont := true
	for _, e := range s.divisors(advance) {
		if !s.fusedExtentOK(e, b) {
			continue
		}
		factor.EnumerateChains(e, inner, func(ifs []int) bool {
			copy(buf[:n-s.fuseSlot], ifs)
			factor.EnumerateChains(factor.CeilDiv(b, e), outer, func(ofs []int) bool {
				copy(buf[n-s.fuseSlot:], ofs)
				cont = yield(buf)
				return cont
			})
			return cont
		})
		if !cont {
			return
		}
	}
}

// sampleFusedExtent draws the fused tile extent: with probability 1/4 the
// largest admissible divisor of the advance (saturating the fused tile),
// otherwise uniform over the admissible divisors.
func (s *Space) sampleFusedExtent(rng *rand.Rand, advance, bound int, dc *divCache) int {
	divs := s.divisorsFor(advance, dc)
	cnt, largest := 0, 1
	for _, e := range divs {
		if s.fusedExtentOK(e, bound) {
			cnt++
			if e > largest {
				largest = e
			}
		}
	}
	if cnt <= 1 {
		return 1 // extent 1 is always admissible
	}
	if rng.Intn(4) == 0 {
		return largest
	}
	k := rng.Intn(cnt)
	for _, e := range divs {
		if s.fusedExtentOK(e, bound) {
			if k == 0 {
				return e
			}
			k--
		}
	}
	return 1
}

// sampleFusedChainInto draws fused dimension di's outermost-first chain
// into fs, consuming from the shared spatial budget: extent first (a
// divisor of the dimension's advance), then perfect inner factors with the
// fusion slot absorbing, then kind-ruled outer factors with the DRAM slot
// absorbing.
//
//ruby:hotpath
func (s *Space) sampleFusedChainInto(rng *rand.Rand, di, advance int, budget, fs []int, dc *divCache) {
	b := s.Work.Dims[di].Bound
	rules := s.rules.row(di, len(s.slots))
	e := s.sampleFusedExtent(rng, advance, b, dc)

	// Inner region: perfect divisors of the extent; the fusion slot absorbs
	// what the draws leave so the inner product equals e exactly.
	r := e
	for i := len(s.slots) - 1; i > s.fuseSlot; i-- {
		fl := rules[i]
		f := 1
		if r > 1 {
			if fl&ruleSpatial != 0 {
				if fl&ruleAllowed != 0 {
					max := r
					if budget[i] < max {
						max = budget[i]
					}
					if fl&ruleRequired != 0 {
						f = s.divisorGE2LE(rng, r, max, dc)
					} else {
						f = s.cappedDivisor(rng, r, max, dc)
					}
				}
			} else {
				max := r
				if s.Cons.MaxTemporalFactor > 0 && s.Cons.MaxTemporalFactor < max {
					max = s.Cons.MaxTemporalFactor
				}
				f = s.cappedDivisor(rng, r, max, dc)
			}
		}
		fs[i] = f
		if fl&ruleSpatial != 0 && f > 1 {
			budget[i] /= f
		}
		r /= f
	}
	fs[s.fuseSlot] = r

	// Outer region: the kind's usual rules over the remaining coverage.
	r = factor.CeilDiv(b, e)
	for i := s.fuseSlot - 1; i >= 1; i-- {
		fl := rules[i]
		f := s.drawFactor(rng, fl, r, budget[i], dc)
		fs[i] = f
		if fl&ruleSpatial != 0 && f > 1 {
			budget[i] /= f
		}
		if r > 1 {
			if fl&ruleImperfect == 0 {
				r /= f
			} else {
				r = factor.CeilDiv(r, f)
			}
		}
	}
	if s.fuseSlot > 0 {
		fs[0] = r
	}
}

// FuseTileOf derives the producer-side FuseTile constraint from a consumer's
// mapping: for each dimension pair of the edge binding, the producer must
// advance its output along the producer dim in steps dividing
//
//	stride x (consumer's input-tile extent of the consumer dim at level),
//
// the number of producer elements one consumer tile consumes. Pairs whose
// consumer dim is untiled at the level contribute their full producer bound
// (no real constraint). The consumer mapping must lower against (consumer
// workload, arch).
func FuseTileOf(b workload.EdgeBinding, a *arch.Arch, cm *mapping.Mapping, level int) (map[string]int, error) {
	if level < 1 {
		level = 1
	}
	slots := mapping.Slots(a)
	dn, err := cm.Dense(b.Cons.Work, a, slots)
	if err != nil {
		return nil, fmt.Errorf("mapspace: fuse tile of %s->%s: %w", b.Prod.Name, b.Cons.Name, err)
	}
	si := mapping.FirstSlotOfLevel(slots, level)
	out := make(map[string]int, len(b.Pairs))
	for _, pr := range b.Pairs {
		adv := pr.Stride * dn.CumAt(int(pr.ConsID), si)
		if bp := b.Prod.Work.Bound(pr.ProdDim); adv > bp {
			adv = bp
		}
		out[pr.ProdDim] = adv
	}
	return out, nil
}
