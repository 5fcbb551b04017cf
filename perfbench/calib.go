package main

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Machine-speed calibration. On a shared VM the speed of the same code
// drifts by tens of percent over minutes, as neighbours come and go, and
// that drift swamps any change worth gating. So the measured loop runs
// in segments with a short burst of a fixed calibration task before,
// between and after them, and each segment's times are rescaled to
// reference seconds by the calibration rate measured beside it: a
// segment that ran while the machine was 20% slow is counted 20%
// shorter. The task is the benchmark's own code, not the program's, so
// the scale is the same for a change and its parent. It must never be
// edited, or figures stop being comparable across commits.
const (
	loopSegments = 10
	calibSlice   = 200 * time.Millisecond
	// refRate is the calibration rate, in tasks per second with one
	// goroutine per core, that defines the reference speed: a reference
	// second is a second of a machine that runs refRate tasks per second.
	// It is about the median rate of the 2-core VM the benchmark was
	// tuned on, and only scales the reported figures.
	refRate = 2300.0
)

type calItem struct {
	A int
	S string
	F float64
}

// calTask is a fixed mix of what the program spends its time on:
// small allocations, map inserts, a sort and a JSON encoding.
func calTask(seed int) int {
	m := make(map[int]*calItem, 2048)
	items := make([]calItem, 2048)
	for i := range items {
		items[i] = calItem{A: i ^ seed, S: strconv.Itoa(i * seed), F: float64(i) / 3}
		m[i] = &items[i]
	}
	xs := make([]float64, 4096)
	x := uint64(seed) + 1
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = float64(x >> 11)
	}
	sort.Float64s(xs)
	b, _ := json.Marshal(items[:128]) // plain structs always encode
	return len(m) + len(b)
}

// calibrate runs calTask on n goroutines for d and returns the rate in
// tasks per second.
func calibrate(n int, d time.Duration) float64 {
	var done atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(begin) < d; k++ {
				calTask(c<<20 + k)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(begin).Seconds()
}

// calibratedLoop runs the closed loop for d in loopSegments segments
// with a calibration burst around each. It returns the loop's raw
// figures and the same figures in reference time.
func calibratedLoop(ctx context.Context, env *runEnv, w bench, d time.Duration) (raw, ref loopStats, err error) {
	rate := calibrate(env.callers, calibSlice)
	for i := 0; i < loopSegments; i++ {
		st, err := closedLoop(ctx, env, w, d/loopSegments, nil)
		raw.merge(st)
		if err != nil {
			return raw, ref, err
		}
		next := calibrate(env.callers, calibSlice)
		f := (rate + next) / 2 / refRate
		rate = next
		scaled := st
		scaled.elapsed = time.Duration(float64(st.elapsed) * f)
		scaled.lat = make([]float64, len(st.lat))
		for j, l := range st.lat {
			scaled.lat[j] = l * f
		}
		ref.merge(scaled)
	}
	sort.Float64s(raw.lat)
	sort.Float64s(ref.lat)
	return raw, ref, nil
}
