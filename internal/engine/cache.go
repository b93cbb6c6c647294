package engine

import (
	"encoding/binary"
	"sync"

	"ruby/internal/mapping"
	"ruby/internal/nest"
)

// memoCache is a sharded, bounded, concurrency-safe map from encoded
// mapping lowerings (Engine.appendKey) to costs. Eviction is generational
// ("flip-flop"): each shard keeps a current and a previous map; when the
// current map fills, it becomes the previous one and a fresh map starts.
// Hits in the previous generation are promoted. This bounds residency at
// ~2x the configured capacity with O(1) operations and no per-entry
// bookkeeping — recently hot keys survive rotation, cold ones age out
// wholesale. Keys arrive as byte slices in the caller's reusable buffer:
// a lookup copies nothing, and only an insert allocates the key string.
type memoCache struct {
	shards [cacheShards]cacheShard
}

const cacheShards = 16

type cacheShard struct {
	//ruby:guards cur,prev
	mu        sync.Mutex
	cur, prev map[string]nest.Cost
	cap       int // max entries per generation in this shard
}

func newMemoCache(entries int) *memoCache {
	perShard := entries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &memoCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].cur = make(map[string]nest.Cost)
	}
	return c
}

// shardOf hashes a key to its shard: FNV-1a over 8-byte words, then over
// the tail bytes. Multiplication carries each word's bits upwards only, so
// the shard index comes from the high half.
//
//ruby:hotpath
func (c *memoCache) shardOf(key []byte) *cacheShard {
	h := uint64(14695981039346656037)
	for ; len(key) >= 8; key = key[8:] {
		h ^= binary.LittleEndian.Uint64(key)
		h *= 1099511628211
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &c.shards[(h>>32)%cacheShards]
}

// get looks key up. The string conversions in the map index expressions
// do not allocate; only promoting a previous-generation hit copies the key.
func (c *memoCache) get(key []byte) (nest.Cost, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.cur[string(key)]; ok {
		return v, true
	}
	if v, ok := s.prev[string(key)]; ok {
		s.insert(string(key), v) // promote so it survives the next rotation
		return v, true
	}
	return nest.Cost{}, false
}

func (c *memoCache) put(key []byte, v nest.Cost) {
	s := c.shardOf(key)
	k := string(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(k, v)
}

// insert adds to the current generation, rotating when full. Callers hold
// the shard lock.
//
//ruby:locked mu
func (s *cacheShard) insert(key string, v nest.Cost) {
	s.cur[key] = v
	if len(s.cur) >= s.cap {
		s.prev = s.cur
		s.cur = make(map[string]nest.Cost, s.cap)
	}
}

// len reports resident entries across both generations (for tests).
func (c *memoCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.cur) + len(s.prev)
		s.mu.Unlock()
	}
	return n
}

// appendKey appends the memo-cache key of the lowering dn to buf. The key
// covers exactly what the compiled plan reads of a lowering, so a hit is
// bit-identical to a fresh evaluation: every dimension's cumulative tiles,
// each level's multi-trip loops in order (single-trip loops cost nothing
// wherever they sit) and the bypass masks of the levels that override the
// architecture. Values are varints and each level's loop list ends in a
// zero byte (ids are stored plus one), so distinct lowerings of one plan
// never share a key.
//
//ruby:hotpath
func (e *Engine) appendKey(buf []byte, dn *mapping.Dense) []byte {
	stride := dn.NSlots + 1
	for d := 0; d < dn.NDims; d++ {
		// The row's final entry is always 1.
		for _, v := range dn.Cum[d*stride : d*stride+dn.NSlots] {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	for li, ti := range e.firstSlot {
		for _, id := range dn.Perm[li*dn.NDims : li*dn.NDims+dn.NDims] {
			if dn.CumAt(int(id), ti+1) < dn.CumAt(int(id), ti) {
				buf = binary.AppendUvarint(buf, uint64(id)+1)
			}
		}
		buf = append(buf, 0)
	}
	for li, mask := range dn.KeepMask {
		if mask >= 0 {
			buf = binary.AppendUvarint(buf, uint64(li))
			buf = append(buf, byte(mask))
		}
	}
	return buf
}
