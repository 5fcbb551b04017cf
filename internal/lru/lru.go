// Package lru provides a small concurrency-safe least-recently-used
// cache, generic over key and value. It backs the campaign runner's
// result memoisation: simulation results are large but immutable, so a
// bounded LRU keeps the hot working set (e.g. the per-workload static
// baselines shared by every sweep variant) without unbounded growth.
package lru

import (
	"container/list"
	"sync"

	"sdpolicy/internal/telemetry"
)

// Cache telemetry, aggregated across every live cache in the process.
// A nil cache counts nothing: a disabled cache has no hit rate worth
// graphing, and the no-op fast path stays allocation- and atomic-free.
var (
	mHits = telemetry.NewCounter("lru_hits_total",
		"LRU lookups that found the key.")
	mMisses = telemetry.NewCounter("lru_misses_total",
		"LRU lookups that missed.")
	mEvictions = telemetry.NewCounter("lru_evictions_total",
		"Entries evicted because a cache exceeded its capacity.")
)

type entry[K comparable, V any] struct {
	key K
	val V
	// batch and last are GetAll's scratch: the batch that last saw
	// this entry, and the position where that batch last saw it.
	batch uint64
	last  int
}

// Cache is a fixed-capacity LRU map. A nil *Cache is a valid, always
// empty cache whose Add is a no-op — callers can disable caching by
// passing nil instead of guarding every call site.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
	batch uint64 // GetAll calls that touched entries, for duplicate detection
}

// New returns a cache holding at most capacity entries. It panics on a
// non-positive capacity; use a nil *Cache to disable caching.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: non-positive capacity")
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		mMisses.Inc()
		var zero V
		return zero, false
	}
	mHits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// GetAll looks up a whole batch under one lock. It sets vals[i] to
// the value of every key keys[i] the cache holds, marks those entries
// most recently used in input order, counts one hit per distinct key,
// and returns the number of distinct keys that hit. When next is
// non-nil it also links the positions that share a key: next[i] is the
// next position j > i with keys[j] == keys[i], or -1.
//
// found selects the mode. With found nil the probe is all or nothing:
// when any key is missing GetAll returns ok false and touches nothing,
// so recency is unchanged, no hit or miss is counted, and vals and next
// hold unspecified values. With found non-nil the probe is partial:
// found[i] reports whether keys[i] hit, every missing position counts
// one miss, and ok reports whether every key hit; vals[i] and next[i]
// are meaningful only where found[i] is true. vals, and next and found
// when non-nil, must be at least len(keys) long.
func (c *Cache[K, V]) GetAll(keys []K, vals []V, next []int, found []bool) (distinct int, ok bool) {
	if c == nil {
		if found != nil {
			clear(found[:len(keys)])
		}
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if found == nil {
		for _, k := range keys {
			if _, ok := c.items[k]; !ok {
				return 0, false
			}
		}
	}
	c.batch++
	misses := 0
	for i, k := range keys {
		el, hit := c.items[k]
		if found != nil {
			found[i] = hit
		}
		if !hit {
			misses++
			continue
		}
		e := el.Value.(*entry[K, V])
		vals[i] = e.val
		if next != nil {
			next[i] = -1
		}
		if e.batch != c.batch {
			e.batch = c.batch
			distinct++
			c.order.MoveToFront(el)
		} else if next != nil {
			next[e.last] = i
		}
		e.last = i
	}
	mHits.Add(uint64(distinct))
	if misses > 0 {
		mMisses.Add(uint64(misses))
	}
	return distinct, misses == 0
}

// Peek returns the cached value without counting a hit or miss and
// without changing recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes the entry, evicting the least recently used
// entry if the cache is over capacity.
func (c *Cache[K, V]) Add(key K, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		mEvictions.Inc()
	}
}

// Snapshot returns the cached entries ordered least recently used
// first, so Adding them back in order onto an empty cache reproduces
// both the contents and the recency order. It backs the campaign
// engine's persistent cache spill.
func (c *Cache[K, V]) Snapshot() (keys []K, vals []V) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys = make([]K, 0, c.order.Len())
	vals = make([]V, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[K, V])
		keys = append(keys, e.key)
		vals = append(vals, e.val)
	}
	return keys, vals
}

// Cap returns the cache capacity; a nil cache has capacity 0.
func (c *Cache[K, V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
