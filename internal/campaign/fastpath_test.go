package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"sdpolicy/internal/telemetry"
)

// counts snapshots every tally a batch resolution moves: the runner's
// Stats and the process-wide campaign and LRU counters behind /metrics.
type counts struct {
	hits, misses                uint64 // Runner.Stats
	campHits, campMisses        uint64 // campaign_cache_{hits,misses}_total
	lruHits, lruMisses, started uint64 // lru_{hits,misses}_total, campaign_points_started_total
}

func snapshot[K comparable, R any](r *Runner[K, R]) counts {
	var c counts
	c.hits, c.misses = r.Stats()
	c.campHits, c.campMisses = mCacheHits.Value(), mCacheMisses.Value()
	c.lruHits = telemetry.Default.Counter("lru_hits_total", "").Value()
	c.lruMisses = telemetry.Default.Counter("lru_misses_total", "").Value()
	c.started = mStarted.Value()
	return c
}

func (c counts) sub(o counts) counts {
	return counts{
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		campHits: c.campHits - o.campHits, campMisses: c.campMisses - o.campMisses,
		lruHits: c.lruHits - o.lruHits, lruMisses: c.lruMisses - o.lruMisses,
		started: c.started - o.started,
	}
}

// warmRunner returns a runner whose cache holds every key in keys.
func warmRunner(t *testing.T, execs *atomic.Int64, keys []int) *Runner[int, int] {
	t.Helper()
	r := New(square(execs), Config{Workers: 4, CacheSize: 64})
	if _, err := r.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAllHitBatchCountsOncePerUniqueKey pins the all-hit fast path to
// the worker path's accounting: every distinct key counts one hit in
// Stats, campaign_cache_hits_total and lru_hits_total — exactly what
// the worker path's one cache lookup per unique key counts — and
// nothing else moves.
func TestAllHitBatchCountsOncePerUniqueKey(t *testing.T) {
	keys := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3} // 7 distinct
	var execs atomic.Int64
	r := warmRunner(t, &execs, []int{1, 2, 3, 4, 5, 6, 9})

	// The worker path's deltas for the same warm batch, measured on a
	// twin runner whose cache is primed one key short: the one miss
	// routes the batch through the workers.
	var twinExecs atomic.Int64
	twin := warmRunner(t, &twinExecs, []int{1, 2, 3, 4, 5, 6})
	before := snapshot(twin)
	if _, err := twin.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	slow := snapshot(twin).sub(before)
	if want := (counts{hits: 6, misses: 1, campHits: 6, campMisses: 1, lruHits: 6, lruMisses: 1, started: 1}); slow != want {
		t.Fatalf("worker path deltas %+v, want %+v", slow, want)
	}

	before = snapshot(r)
	res, err := r.Run(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	fast := snapshot(r).sub(before)
	if want := (counts{hits: 7, campHits: 7, lruHits: 7}); fast != want {
		t.Fatalf("all-hit deltas %+v, want %+v (one hit per distinct key)", fast, want)
	}
	// The fast path's hits are the worker path's hits plus its miss.
	if fast.hits != slow.hits+slow.misses || fast.lruHits != slow.lruHits+slow.lruMisses {
		t.Fatalf("all-hit deltas %+v disagree with worker path %+v", fast, slow)
	}
	for i, k := range keys {
		if res[i] != k*k {
			t.Fatalf("res[%d] = %d, want %d", i, res[i], k*k)
		}
	}
	if n := execs.Load(); n != 7 {
		t.Fatalf("warm batch executed tasks: %d executions, want the 7 from warming", n)
	}
}

// TestAllHitBatchAllocatesOnlyResults checks the fast path's cost: a warm
// batch allocates only its result slice — no workers, no cancel
// context, no position map.
func TestAllHitBatchAllocatesOnlyResults(t *testing.T) {
	keys := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	r := warmRunner(t, new(atomic.Int64), keys)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Run(ctx, keys); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm Run allocated %v times per batch, want 1 (the result slice)", allocs)
	}
}

// TestAllHitStreamGroupsDuplicates checks the streaming contract on the
// fast path: one update per index, a key's positions delivered together
// in ascending order, keys in order of first appearance.
func TestAllHitStreamGroupsDuplicates(t *testing.T) {
	keys := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	r := warmRunner(t, new(atomic.Int64), keys)
	updates := make(chan Update[int, int], len(keys))
	if _, err := r.RunStream(context.Background(), keys, updates); err != nil {
		t.Fatal(err)
	}
	var got []int
	for u := range updates {
		if u.Key != keys[u.Index] || u.Value != u.Key*u.Key {
			t.Fatalf("update %+v does not match key %d", u, keys[u.Index])
		}
		got = append(got, u.Index)
	}
	want := []int{0, 9, 1, 3, 2, 4, 8, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("delivered indexes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered indexes %v, want %v", got, want)
		}
	}
}

func TestAllHitProgressReachesTotal(t *testing.T) {
	keys := []int{1, 2, 1, 3}
	r := warmRunner(t, new(atomic.Int64), keys)
	var mu sync.Mutex
	var calls [][2]int
	r.OnProgress(func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	})
	if _, err := r.Run(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) == 0 || calls[len(calls)-1] != [2]int{4, 4} {
		t.Fatalf("progress calls %v, want a final (4, 4)", calls)
	}
}

func TestAllHitCancelledContext(t *testing.T) {
	keys := []int{1, 2, 1}
	r := warmRunner(t, new(atomic.Int64), keys)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := snapshot(r)
	if res, err := r.Run(ctx, keys); err == nil {
		t.Fatalf("cancelled warm Run returned %v, nil", res)
	}
	updates := make(chan Update[int, int], len(keys))
	if _, err := r.RunStream(ctx, keys, updates); err == nil {
		t.Fatal("cancelled warm RunStream returned no error")
	}
	for u := range updates {
		t.Fatalf("cancelled warm RunStream delivered %+v", u)
	}
	if d := snapshot(r).sub(before); d != (counts{}) {
		t.Fatalf("cancelled warm batches moved counters: %+v", d)
	}
}

// TestPartialHitCountsOnce checks that a batch the cache holds only in
// part pays nothing for the failed batch probe: each distinct key
// counts one LRU lookup, in the worker path.
func TestPartialHitCountsOnce(t *testing.T) {
	var execs atomic.Int64
	r := warmRunner(t, &execs, []int{1, 2, 3})
	before := snapshot(r)
	res, err := r.Run(context.Background(), []int{1, 4, 2, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res[1] != 16 || res[5] != 16 || res[4] != 9 {
		t.Fatalf("bad results %v", res)
	}
	d := snapshot(r).sub(before)
	if want := (counts{hits: 3, misses: 1, campHits: 3, campMisses: 1, lruHits: 3, lruMisses: 1, started: 1}); d != want {
		t.Fatalf("partial-hit deltas %+v, want %+v", d, want)
	}
}

// TestConcurrentRunsExecuteEachKeyOnce races overlapping batches of
// fresh keys. A resolver that misses the cache just before the owner
// publishes and leaves the in-flight table must find the result under
// the lock instead of executing the key a second time.
func TestConcurrentRunsExecuteEachKeyOnce(t *testing.T) {
	const rounds, callers = 200, 6
	var execs atomic.Int64
	r := New(square(&execs), Config{Workers: 4, CacheSize: 4096})
	for round := 0; round < rounds; round++ {
		keys := make([]int, 6)
		for i := range keys {
			keys[i] = round*len(keys) + i
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Run(context.Background(), keys); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n, want := execs.Load(), int64(rounds*6); n != want {
		t.Fatalf("%d executions for %d distinct keys", n, want)
	}
}

// TestLookupServesHitsOnly: a partial probe serves the cached keys of a
// mixed batch, executes nothing, and counts one hit per distinct key
// served; a key keep declines is reported missing and not counted.
func TestLookupServesHitsOnly(t *testing.T) {
	keys := []int{3, 7, 4, 3, 8, 4, 3} // 3 and 4 cached, 7 and 8 not
	var execs atomic.Int64
	r := warmRunner(t, &execs, []int{3, 4})
	vals := make([]int, len(keys))
	found := make([]bool, len(keys))

	before := snapshot(r)
	if n := r.Lookup(keys, vals, found, nil); n != 2 {
		t.Fatalf("Lookup served %d distinct keys, want 2", n)
	}
	if d := snapshot(r).sub(before); d != (counts{hits: 2, campHits: 2, lruHits: 2, lruMisses: 2}) {
		t.Fatalf("Lookup deltas %+v, want 2 hits and one LRU miss per missing position", d)
	}
	for i, k := range keys {
		if hit := k == 3 || k == 4; found[i] != hit || (hit && vals[i] != k*k) {
			t.Fatalf("position %d (key %d): found %v, val %d", i, k, found[i], vals[i])
		}
	}

	before = snapshot(r)
	if n := r.Lookup(keys, vals, found, func(v int) bool { return v != 9 }); n != 1 {
		t.Fatalf("Lookup with keep served %d distinct keys, want 1", n)
	}
	if d := snapshot(r).sub(before); d.hits != 1 || d.campHits != 1 {
		t.Fatalf("declined key counted: deltas %+v", d)
	}
	for i, k := range keys {
		hit, want := k == 4, 0 // a declined slot is zeroed
		if hit {
			want = k * k
		}
		if found[i] != hit || vals[i] != want {
			t.Fatalf("position %d (key %d) after keep: found %v, val %d", i, k, found[i], vals[i])
		}
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("Lookup executed tasks: %d executions, want the 2 from warming", n)
	}
}
