package nest

import "ruby/internal/mapping"

// A capacity screen rejects a mapping that must overflow a buffer while it
// is still being drawn, before its remaining chains, loop orders, cache key
// and model call are paid for. ScreenStart opens a screen on a scratch, and
// ScreenChain takes each dimension's tiling chain as the draw writes its Cum
// row. A dimension not drawn yet counts at extent 1 at every level: every
// coordinate stride is at least 1, so tileVolume is then a lower bound on
// the finished draw's volume. The verdict is checkCapacity's, on the
// scratch's volumes and kept masks, so the screen rejects a draw only when
// the finished draw would fail the model's capacity check, or a check the
// model runs before it: screening never turns a valid draw away.

// ScreenStart opens a capacity screen of one draw on s: every dimension at
// extent 1, so every tile volume at one word, and every level keeping its
// architecture's roles. With innermostOnly, the levels above the innermost
// keep nothing, so their capacities are not screened: a bypass draw still
// to come may drop a tensor there and relieve them. The screen lives in s
// until the next evaluation on s overwrites it.
//
//ruby:hotpath
func (p *Plan) ScreenStart(s *Scratch, innermostOnly bool) {
	for i := range s.exts {
		s.exts[i] = 1
	}
	for i := range s.vols {
		s.vols[i] = 1
	}
	for li := range s.kept {
		s.kept[li] = p.archKeeps[li]
		if innermostOnly && li < p.nLevels-1 {
			s.kept[li] = 0
		}
	}
}

// ScreenChain records dimension d's drawn chain, the Cum row dm holds for
// it, in the screen open on s, and reports whether the draw must overflow a
// buffer. Only dm's row d is read.
//
//ruby:hotpath
func (p *Plan) ScreenChain(dm *mapping.Dense, d int, s *Scratch) bool {
	for li := 1; li < p.nLevels; li++ {
		if s.kept[li] == 0 {
			continue
		}
		exts := s.exts[li*p.nDims : (li+1)*p.nDims]
		exts[d] = dm.CumAt(d, p.firstSlot[li])
		base := li * p.nTensors
		for ti := range p.tensors {
			if p.tensors[ti].rel[d] {
				s.vols[base+ti] = p.tileVolume(ti, exts)
			}
		}
	}
	_, bad := p.checkCapacity(s)
	return bad
}
