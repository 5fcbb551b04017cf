package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddGetEvict(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used and must be the eviction victim.
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction over less recently used a")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // refresh value and recency
	c.Add("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %v, %v, want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache[string, int]
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(i%100, g)
				c.Get(i % 100)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

func TestPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[string, string](0)
}

func ExampleCache() {
	c := New[string, string](8)
	c.Add("wl1/static", "baseline")
	v, ok := c.Get("wl1/static")
	fmt.Println(v, ok)
	// Output: baseline true
}

func TestSnapshotOrderAndRestore(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Get("a") // a becomes most recent: LRU order is now b, c, a
	keys, vals := c.Snapshot()
	if len(keys) != 3 || len(vals) != 3 {
		t.Fatalf("snapshot %v %v", keys, vals)
	}
	want := []string{"b", "c", "a"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("snapshot order %v, want %v", keys, want)
		}
	}
	// Re-adding in snapshot order reproduces the recency order: with
	// capacity 3 and one more insert, "b" (least recent) evicts first.
	r := New[string, int](3)
	for i, k := range keys {
		r.Add(k, vals[i])
	}
	r.Add("d", 4)
	if _, ok := r.Get("b"); ok {
		t.Fatal("restored cache evicted the wrong entry")
	}
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Fatal("restored cache lost a recent entry")
	}
	var nilCache *Cache[string, int]
	if k, v := nilCache.Snapshot(); k != nil || v != nil {
		t.Fatal("nil cache snapshot not empty")
	}
}

// order returns the cache's keys, least recently used first.
func order(c *Cache[string, int]) []string {
	keys, _ := c.Snapshot()
	return keys
}

func equal(a, b []string) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

func TestGetAllHit(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	hits := mHits.Value()
	keys := []string{"b", "a", "b", "b", "a"}
	vals := make([]int, len(keys))
	next := make([]int, len(keys))
	distinct, ok := c.GetAll(keys, vals, next, nil)
	if !ok || distinct != 2 {
		t.Fatalf("GetAll = %d, %v, want 2, true", distinct, ok)
	}
	if fmt.Sprint(vals) != "[2 1 2 2 1]" {
		t.Fatalf("vals %v", vals)
	}
	// next links each position to the next one holding the same key.
	if fmt.Sprint(next) != "[2 4 3 -1 -1]" {
		t.Fatalf("next %v, want [2 4 3 -1 -1]", next)
	}
	if d := mHits.Value() - hits; d != 2 {
		t.Fatalf("GetAll counted %d hits, want one per distinct key (2)", d)
	}
	// Entries are touched in input order: b, then a is most recent.
	if got := order(c); !equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("recency %v, want [c b a]", got)
	}
	// A second batch over the same entries detects duplicates afresh.
	if distinct, ok := c.GetAll([]string{"c", "a", "c"}, vals, nil, nil); !ok || distinct != 2 {
		t.Fatalf("second GetAll = %d, %v, want 2, true", distinct, ok)
	}
}

func TestGetAllMissTouchesNothing(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	hits, misses := mHits.Value(), mMisses.Value()
	keys := []string{"b", "x", "a"}
	if _, ok := c.GetAll(keys, make([]int, len(keys)), make([]int, len(keys)), nil); ok {
		t.Fatal("GetAll reported a hit for a batch with a missing key")
	}
	if mHits.Value() != hits || mMisses.Value() != misses {
		t.Fatal("a missed GetAll moved the hit/miss counters")
	}
	if got := order(c); !equal(got, []string{"a", "b"}) {
		t.Fatalf("a missed GetAll changed recency: %v", got)
	}
	var nilCache *Cache[string, int]
	if _, ok := nilCache.GetAll([]string{"a"}, make([]int, 1), nil, nil); ok {
		t.Fatal("nil cache GetAll hit")
	}
}

// TestGetAllPartial: with found set, a batch with misses still serves
// its hits — touched in input order, one hit per distinct key, linked
// by next — and counts one miss per missing position.
func TestGetAllPartial(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	hits, misses := mHits.Value(), mMisses.Value()
	keys := []string{"b", "x", "a", "b", "x"}
	vals := make([]int, len(keys))
	next := make([]int, len(keys))
	found := make([]bool, len(keys))
	distinct, ok := c.GetAll(keys, vals, next, found)
	if ok || distinct != 2 {
		t.Fatalf("GetAll = %d, %v, want 2, false", distinct, ok)
	}
	if fmt.Sprint(found) != "[true false true true false]" {
		t.Fatalf("found %v", found)
	}
	if vals[0] != 2 || vals[2] != 1 || vals[3] != 2 {
		t.Fatalf("vals %v", vals)
	}
	if next[0] != 3 || next[2] != -1 || next[3] != -1 {
		t.Fatalf("next %v, want position 0 linked to 3", next)
	}
	if d := mHits.Value() - hits; d != 2 {
		t.Fatalf("counted %d hits, want one per distinct hit key (2)", d)
	}
	if d := mMisses.Value() - misses; d != 2 {
		t.Fatalf("counted %d misses, want one per missing position (2)", d)
	}
	if got := order(c); !equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("recency %v, want [c b a]", got)
	}
	if distinct, ok := c.GetAll([]string{"a", "c"}, vals, nil, found); !ok || distinct != 2 {
		t.Fatalf("all-hit partial GetAll = %d, %v, want 2, true", distinct, ok)
	}
	var nilCache *Cache[string, int]
	found[0] = true
	if _, ok := nilCache.GetAll([]string{"a"}, vals, nil, found); ok || found[0] {
		t.Fatal("nil cache partial GetAll hit")
	}
}

func TestPeekCountsAndTouchesNothing(t *testing.T) {
	c := New[string, int](4)
	c.Add("a", 1)
	c.Add("b", 2)
	hits, misses := mHits.Value(), mMisses.Value()
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("x"); ok {
		t.Fatal("Peek(x) hit")
	}
	if mHits.Value() != hits || mMisses.Value() != misses {
		t.Fatal("Peek moved the hit/miss counters")
	}
	if got := order(c); !equal(got, []string{"a", "b"}) {
		t.Fatalf("Peek changed recency: %v", got)
	}
	var nilCache *Cache[string, int]
	if _, ok := nilCache.Peek("a"); ok {
		t.Fatal("nil cache Peek hit")
	}
}
