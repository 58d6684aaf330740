package engine

import (
	"sync"

	"neurocuts/internal/rule"
)

// flowCache is a sharded, direct-mapped cache of recent classification
// results. Real traffic is heavily skewed — a small number of flows carries
// most packets (the Zipf-shaped workloads internal/perf generates) — so a
// cache of (5-tuple -> result) turns the common-case lookup into one hash
// and one array read, regardless of how expensive the underlying structure's
// traversal is.
//
// Correctness under updates: every slot records the engine snapshot version
// it was filled from, and a hit requires the stored version to equal the
// current snapshot's version. A rule update bumps the version, so every
// stale entry silently becomes a miss; no explicit invalidation pass is
// needed and a hit can never return a result from a retired rule set.
//
// The cache is allocation-free on both hit and miss paths: slots are a flat
// preallocated array of values, and the hash is computed inline from the
// packet fields.
type flowCache struct {
	shards    []cacheShard
	shardMask uint64
	slotMask  uint64
}

// cacheShard is one independently locked region of the cache. Hit/miss
// counters live per shard, updated under the shard lock the lookup already
// holds — global atomic counters would put one contended cache line back on
// the hot path the sharding exists to avoid. The pad keeps neighbouring
// shards' headers off the same cache line.
type cacheShard struct {
	mu     sync.Mutex
	slots  []cacheSlot
	hits   uint64
	misses uint64
	_      [24]byte
}

// cacheSlot is one direct-mapped entry.
type cacheSlot struct {
	key     rule.Packet
	version uint64
	rule    rule.Rule
	ok      bool
	valid   bool
}

// defaultCacheShards bounds lock contention; 64 shards keeps the probability
// of two concurrent lookups colliding on a lock low at any realistic core
// count while costing only 64 mutexes of overhead.
const defaultCacheShards = 64

// newFlowCache builds a cache with at least the requested number of entries
// over defaultCacheShards shards, rounding the per-shard slot count to a
// power of two (index extraction is then two masks on one hash).
func newFlowCache(entries int) *flowCache {
	if entries <= 0 {
		return nil
	}
	const shards = defaultCacheShards
	perShard := ceilPow2((entries + shards - 1) / shards)
	if perShard < 1 {
		perShard = 1
	}
	c := &flowCache{
		shards:    make([]cacheShard, shards),
		shardMask: uint64(shards - 1),
		slotMask:  uint64(perShard - 1),
	}
	for i := range c.shards {
		c.shards[i].slots = make([]cacheSlot, perShard)
	}
	return c
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HashPacket mixes a packet's five header fields FNV-1a style into one
// 64-bit flow hash. It is the one flow-hash function of the serving stack:
// the sharded flow cache derives its shard and slot indices from it (the low
// bits select the shard and the high bits the slot, so the two indices are
// decorrelated), and the run-to-completion dataplane (internal/dataplane)
// derives its per-core demux from it, so "same 5-tuple" means the same thing
// — same cache identity, same owning core — everywhere.
func HashPacket(p rule.Packet) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(p.SrcIP)
	h *= prime64
	h ^= uint64(p.DstIP)
	h *= prime64
	h ^= uint64(p.SrcPort)<<16 | uint64(p.DstPort)
	h *= prime64
	h ^= uint64(p.Proto)
	h *= prime64
	return h
}

// get returns the cached result for p at the given snapshot version. The
// third return value reports whether the lookup hit.
func (c *flowCache) get(p rule.Packet, version uint64) (rule.Rule, bool, bool) {
	h := HashPacket(p)
	sh := &c.shards[h&c.shardMask]
	sh.mu.Lock()
	slot := &sh.slots[(h>>32)&c.slotMask]
	if slot.valid && slot.version == version && slot.key == p {
		r, ok := slot.rule, slot.ok
		sh.hits++
		sh.mu.Unlock()
		return r, ok, true
	}
	sh.misses++
	sh.mu.Unlock()
	return rule.Rule{}, false, false
}

// put stores the result for p computed against the given snapshot version,
// evicting whatever occupied the slot.
func (c *flowCache) put(p rule.Packet, version uint64, r rule.Rule, ok bool) {
	h := HashPacket(p)
	sh := &c.shards[h&c.shardMask]
	sh.mu.Lock()
	sh.slots[(h>>32)&c.slotMask] = cacheSlot{key: p, version: version, rule: r, ok: ok, valid: true}
	sh.mu.Unlock()
}

// CacheStats reports the flow cache's cumulative hit and miss counters
// (summed across shards), or zeros when the engine runs without a cache.
func (e *Engine) CacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	for i := range e.cache.shards {
		sh := &e.cache.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}
