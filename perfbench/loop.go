package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdpolicy"
)

// bench is one benchmark workload.
type bench interface {
	// setup builds the workload anew: engines, servers, filled
	// caches and the warmed read set. It is timed, and repeated after
	// close.
	setup(ctx context.Context, env *runEnv) error
	// op runs the next operation of one caller of the closed loop and
	// returns the latency of the call into the program. An error
	// wrapping errRefused is a failed or refused operation, counted in
	// failed_frac; any other error is a wrong output and stops the run.
	op(ctx context.Context, caller int) (lat time.Duration, err error)
	// verify runs the output checks left after the loop and returns a
	// digest of the simulated statistics.
	verify(ctx context.Context) (digest string, err error)
	// sample is the fixed, seeded sample of the workload's operations
	// the traced run re-issues at every layer boundary.
	sample() ledgerSample
	// usage reports the engine and generation-cache counters the traced
	// run attributes to this workload.
	usage() (cacheHits, cacheMisses uint64)
	close()
}

// loopStats is what one closed loop measured.
type loopStats struct {
	ops, failed int64
	firstFail   error     // the first failed operation's error
	lat         []float64 // per-op latency, ms, sorted; +Inf for a failed op
	elapsed     time.Duration
	mallocs     uint64
}

// merge adds another loop's counts to s. The latencies are left
// unsorted.
func (s *loopStats) merge(o loopStats) {
	s.ops += o.ops
	s.failed += o.failed
	if s.firstFail == nil {
		s.firstFail = o.firstFail
	}
	s.lat = append(s.lat, o.lat...)
	s.elapsed += o.elapsed
	s.mallocs += o.mallocs
}

func (s loopStats) throughput() float64 { return float64(s.ops) / s.elapsed.Seconds() }

func (s loopStats) allocsPerOp() float64 { return float64(s.mallocs) / float64(max(s.ops, 1)) }

func (s loopStats) failedFrac() float64 { return float64(s.failed) / float64(max(s.ops, 1)) }

// percentile is the nearest-rank percentile of the op latencies, ms. A
// percentile that falls on a failed operation reads as the largest
// float64, since JSON has no infinity.
func (s loopStats) percentile(p float64) float64 {
	if len(s.lat) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(s.lat)))) - 1
	return min(s.lat[min(max(i, 0), len(s.lat)-1)], math.MaxFloat64)
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

// span is one recorded call across a layer boundary, written to the
// traced run's span log. Offsets are from the start of the run.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// newID reserves a span ID, for a span recorded after its children.
func (l *spanLog) newID() int64 { return l.nextID.Add(1) }

// add records a span that began at start and lasted dur, returning its ID.
func (l *spanLog) add(parent int64, layer, name string, start time.Time, dur time.Duration) int64 {
	return l.addID(l.newID(), parent, layer, name, start, dur)
}

// addID records a span under a reserved ID.
func (l *spanLog) addID(id, parent int64, layer, name string, start time.Time, dur time.Duration) int64 {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(l.origin).Nanoseconds(), Dur: dur.Nanoseconds()})
	l.mu.Unlock()
	return id
}

// write stores the spans as NDJSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// closedLoop runs env.callers callers for d: each issues its next
// operation only when the previous one has returned. An operation in
// flight at the deadline completes and counts. With spans non-nil every
// operation is recorded as a span.
func closedLoop(ctx context.Context, env *runEnv, w bench, d time.Duration, spans *spanLog) (loopStats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failMu   sync.Mutex
		failed   int64
		firstBad error
		lats     = make([][]float64, env.callers)
	)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	deadline := begin.Add(d)
	for c := 0; c < env.callers; c++ {
		lats[c] = make([]float64, 0, 1<<16)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				start := time.Now()
				lat, err := w.op(ctx, c)
				if err != nil && !refused(err) {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				if spans != nil {
					spans.add(0, "loop", "op", start, lat)
				}
				ms := float64(lat.Nanoseconds()) / 1e6
				if err != nil {
					// A failed operation misses every latency limit.
					ms = math.Inf(1)
					failMu.Lock()
					if failed++; firstBad == nil {
						firstBad = err
					}
					failMu.Unlock()
				}
				lats[c] = append(lats[c], ms)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&after)
	st := loopStats{failed: failed, firstFail: firstBad, elapsed: elapsed, mallocs: after.Mallocs - before.Mallocs}
	for _, l := range lats {
		st.lat = append(st.lat, l...)
	}
	st.ops = int64(len(st.lat))
	sort.Float64s(st.lat)
	return st, firstErr
}

// median of xs (which it sorts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rng is splitmix64: the benchmark derives every input from the run
// seed with it, so nearby run seeds give unrelated inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0xd1342543de82ef95)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genSeed draws a workload generator seed in [1, 1e9]: never 0, which
// the wire forms read as "default".
func (r *rng) genSeed() uint64 { return 1 + r.next()%1_000_000_000 }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// goldenPath is the committed pre-optimisation oracle. The benchmark
// only reads it.
const goldenPath = "testdata/golden_equivalence.ndjson"

// checkGolden simulates one seeded line of the golden oracle on a cold
// engine and requires the result to be byte-identical to the oracle's.
func checkGolden(ctx context.Context, seed uint64) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("golden oracle: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var line struct {
		Point struct {
			Workload string           `json:"workload"`
			Scale    float64          `json:"scale"`
			Seed     uint64           `json:"seed"`
			Options  sdpolicy.Options `json:"options"`
		} `json:"point"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(lines[newRNG(seed, 99).intn(len(lines))], &line); err != nil {
		return fmt.Errorf("golden oracle: %w", err)
	}
	p := sdpolicy.NewPoint(line.Point.Workload, line.Point.Scale, line.Point.Seed, line.Point.Options)
	res, err := sdpolicy.NewEngine(1, 0).SimulatePoint(ctx, p)
	if err != nil {
		return fmt.Errorf("golden oracle point %s: %w", pointKey(p), err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, line.Result) {
		return fmt.Errorf("golden oracle point %s: result differs from the oracle", pointKey(p))
	}
	return nil
}

// pointKey labels a point in messages.
func pointKey(p sdpolicy.Point) string {
	b, _ := json.Marshal(p) // a Point always marshals
	return string(b)
}
