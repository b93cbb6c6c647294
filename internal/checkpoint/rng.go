package checkpoint

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
)

// RNG is a deterministic, serializable random source (xoshiro256**). It
// implements math/rand.Source64, so rand.New(rng) drives the existing
// samplers unchanged, and — unlike the runtime's unexported default source —
// its full state round-trips through JSON. That is what makes search
// checkpoints replayable: restoring an RNG resumes the exact draw sequence
// the interrupted run would have continued with.
//
// The 256-bit state is serialized as hexadecimal strings (JSON numbers lose
// integer precision above 2^53). An RNG is not safe for concurrent use:
// each goroutine of a search draws from its own.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a source seeded from seed via splitmix64, the recommended
// seeding procedure for xoshiro generators (it guarantees a nonzero state
// for every seed, including 0).
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the state deterministically from seed. It implements
// math/rand.Source.
func (r *RNG) Seed(seed int64) {
	x := uint64(seed)
	for i := range r.s {
		x += golden // splitmix64 step
		r.s[i] = mix64(x)
	}
}

// SeedDraw resets the state to that of draw k of the stream seeded by seed:
// the pair runs through splitmix64, so any goroutine can reproduce draw k
// without making the draws before it.
func (r *RNG) SeedDraw(seed, k int64) {
	r.Seed(int64(mix64(mix64(uint64(seed)+golden) + uint64(k))))
}

// golden is splitmix64's increment, 2^64 over the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value of the sequence. It implements
// math/rand.Source64, so rand.Rand draws from it without the Int63-doubling
// fallback.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit value. It implements math/rand.Source.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Clone returns an independent copy with identical state, so a snapshot does
// not advance (or share) the live source.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// MarshalJSON encodes the state as four hexadecimal strings.
func (r *RNG) MarshalJSON() ([]byte, error) {
	words := make([]string, len(r.s))
	for i, w := range r.s {
		words[i] = strconv.FormatUint(w, 16)
	}
	return json.Marshal(words)
}

// UnmarshalJSON restores the state written by MarshalJSON.
func (r *RNG) UnmarshalJSON(data []byte) error {
	var words []string
	if err := json.Unmarshal(data, &words); err != nil {
		return fmt.Errorf("checkpoint: rng state: %w", err)
	}
	if len(words) != len(r.s) {
		return fmt.Errorf("checkpoint: rng state has %d words, want %d", len(words), len(r.s))
	}
	var s [4]uint64
	for i, w := range words {
		v, err := strconv.ParseUint(w, 16, 64)
		if err != nil {
			return fmt.Errorf("checkpoint: rng state word %d: %w", i, err)
		}
		s[i] = v
	}
	if s == ([4]uint64{}) {
		return fmt.Errorf("checkpoint: rng state is all-zero (xoshiro256** requires a nonzero state)")
	}
	r.s = s
	return nil
}
