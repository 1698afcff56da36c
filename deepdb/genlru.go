package deepdb

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// genLRU is the one cache type of the read path: a bounded LRU whose
// entries are tagged with the snapshot generation they were computed at.
// The plan cache (compiled plans by query shape) and the result cache
// (finished results by shape + bound literals + level) are both instances.
//
// Correctness rides on the generation: every published change of the
// model (an update batch in which something applied, Reload, a background
// re-learn hot-swap) bumps it, and an entry only ever serves the
// generation it was stored at — a plan compiled against different
// statistics, or a result computed against a superseded model state, is
// recomputed on its next use instead of served. Because readers on an older snapshot can
// race readers on a newer one, generations are ordered: an older entry is
// evicted by the lookup that finds it, and an entry a concurrent reader
// stored for a newer generation is never evicted or overwritten on behalf
// of an older snapshot's reader (that reader just computes privately and
// moves on).
//
// The cache is split into independently locked ways, selected by key hash,
// so the hot serve path does not serialize on one mutex; the capacity is
// divided among the ways and therefore enforced per way (exactly, for a
// one-way cache).
type genLRU[V any] struct {
	// Lookup counters (a stale-generation entry is a miss) and evictions,
	// LRU and stale-generation alike; observability only — see UpdateStats
	// and /healthz.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	ways      []lruWay
}

// lruWay is one independently locked LRU slice of the cache.
type lruWay struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type lruEntry[V any] struct {
	key string
	gen uint64
	val V
}

// newGenLRU builds a cache of roughly capacity entries over at most the
// given number of ways (nil when capacity <= 0: the cache is disabled).
func newGenLRU[V any](capacity, ways int) *genLRU[V] {
	if capacity <= 0 {
		return nil
	}
	ways = min(ways, capacity)
	c := &genLRU[V]{ways: make([]lruWay, ways)}
	per := (capacity + ways - 1) / ways
	for i := range c.ways {
		c.ways[i] = lruWay{cap: per, m: make(map[string]*list.Element), lru: list.New()}
	}
	return c
}

// wayOf picks the key's way (FNV-1a). Generic over the key encoding so a
// lookup hashes a scratch []byte key without converting it to a string
// first.
func wayOf[K ~string | ~[]byte, V any](c *genLRU[V], key K) *lruWay {
	if len(c.ways) == 1 {
		return &c.ways[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.ways[h%uint64(len(c.ways))]
}

// lruGet returns the value cached for the key at the given generation. An
// entry from an older generation is evicted; one from a newer generation
// is left in place and the lookup misses. A []byte key is never converted
// to a string: the map index below compiles to an allocation-free lookup.
// (A function, not a method, because the key encoding is a type
// parameter.)
func lruGet[K ~string | ~[]byte, V any](c *genLRU[V], key K, gen uint64) (V, bool) {
	w := wayOf(c, key)
	w.mu.Lock()
	defer w.mu.Unlock()
	el, ok := w.m[string(key)]
	if ok {
		en := el.Value.(*lruEntry[V])
		if en.gen == gen {
			w.lru.MoveToFront(el)
			c.hits.Add(1)
			return en.val, true
		}
		if en.gen < gen {
			w.lru.Remove(el)
			delete(w.m, en.key)
			c.evictions.Add(1)
		}
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// put stores the value for the key, evicting least-recently-used entries
// beyond the way's capacity. A value computed for an older generation
// never replaces a newer entry.
func (c *genLRU[V]) put(key string, gen uint64, val V) {
	w := wayOf(c, key)
	w.mu.Lock()
	defer w.mu.Unlock()
	if el, ok := w.m[key]; ok {
		en := el.Value.(*lruEntry[V])
		if gen >= en.gen {
			en.gen, en.val = gen, val
			w.lru.MoveToFront(el)
		}
		return
	}
	w.m[key] = w.lru.PushFront(&lruEntry[V]{key: key, gen: gen, val: val})
	for w.lru.Len() > w.cap {
		back := w.lru.Back()
		w.lru.Remove(back)
		delete(w.m, back.Value.(*lruEntry[V]).key)
		c.evictions.Add(1)
	}
}

// size returns the cached entry count across all ways (0 for a disabled,
// nil cache).
func (c *genLRU[V]) size() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.ways {
		w := &c.ways[i]
		w.mu.Lock()
		n += w.lru.Len()
		w.mu.Unlock()
	}
	return n
}
