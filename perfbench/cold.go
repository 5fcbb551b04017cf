package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdpolicy"
	"sdpolicy/internal/workload"
)

// cold_sweep: a campaign of wl4 points (the Curie-like preset at scale
// 0.05: 9,925 jobs on 252 nodes) under static backfill, SD MAXSD 10 and
// SD DynAVG, simulated by an engine whose result cache is disabled.
// The scheduler's pass dominates; serve, journal and reducer do nothing.
const (
	coldPreset = "wl4"
	coldScale  = 0.05
	coldSeeds  = 8 // generator seeds per run; each runs under every policy
	// coldChecks is how many points are re-simulated directly through
	// sdpolicy.SimulateContext after the loop.
	coldChecks = 2
)

func coldPolicies() []sdpolicy.Options {
	return []sdpolicy.Options{
		{Policy: "static"},
		{Policy: "sd", MaxSlowdown: 10},
		{Policy: "sd", DynamicCutoff: "avg"},
	}
}

type coldSweep struct {
	seed   uint64
	points []sdpolicy.Point
	engine *sdpolicy.Engine
	next   atomic.Int64

	mu    sync.Mutex
	first [][]byte // result bytes of each point's first simulation
}

func newColdSweep(seed uint64) *coldSweep {
	r := newRNG(seed, 1)
	w := &coldSweep{seed: seed}
	for i := 0; i < coldSeeds; i++ {
		s := r.genSeed()
		for _, opt := range coldPolicies() {
			w.points = append(w.points, sdpolicy.NewPoint(coldPreset, coldScale, s, opt))
		}
	}
	return w
}

// setup starts from an empty generation cache, as a fresh process does,
// builds the cacheless engine and generates every base workload.
func (w *coldSweep) setup(_ context.Context, env *runEnv) error {
	workload.Shared = workload.NewCache(16)
	w.engine = sdpolicy.NewEngine(env.callers, 0)
	w.next.Store(0)
	w.first = make([][]byte, len(w.points))
	for i := 0; i < len(w.points); i += len(coldPolicies()) {
		p := w.points[i]
		if _, err := sdpolicy.NewWorkload(p.Workload, p.Scale, p.Seed); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldSweep) op(ctx context.Context, _ int) (time.Duration, error) {
	i := int(w.next.Add(1)-1) % len(w.points)
	begin := time.Now()
	res, err := w.engine.Run(ctx, w.points[i:i+1])
	lat := time.Since(begin)
	if err != nil {
		return lat, fmt.Errorf("%w: %v", errRefused, err)
	}
	return lat, w.record(i, res[0])
}

// record keeps a point's first result and requires every repeat of the
// point to produce the same bytes.
func (w *coldSweep) record(i int, res *sdpolicy.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first[i] == nil {
		w.first[i] = b
		return nil
	}
	if !bytes.Equal(w.first[i], b) {
		return fmt.Errorf("cold_sweep: point %s simulated twice with different results", pointKey(w.points[i]))
	}
	return nil
}

// verify simulates the points the loop did not reach, then re-simulates
// a seeded sample directly through sdpolicy.SimulateContext and
// requires byte-identical results.
func (w *coldSweep) verify(ctx context.Context) (string, error) {
	for i, b := range w.first {
		if b != nil {
			continue
		}
		res, err := w.engine.Run(ctx, w.points[i:i+1])
		if err != nil {
			return "", err
		}
		if err := w.record(i, res[0]); err != nil {
			return "", err
		}
	}
	r := newRNG(w.seed, 2)
	for k := 0; k < coldChecks; k++ {
		i := r.intn(len(w.points))
		p := w.points[i]
		wl, err := sdpolicy.NewWorkload(p.Workload, p.Scale, p.Seed)
		if err != nil {
			return "", err
		}
		res, err := sdpolicy.SimulateContext(ctx, wl, p.Options)
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(b, w.first[i]) {
			return "", fmt.Errorf("cold_sweep: point %s differs from a direct SimulateContext", pointKey(p))
		}
	}
	return digest(w.first), nil
}

func (w *coldSweep) sample() ledgerSample {
	// One seeded generator seed under all three policies; the reducer
	// layer folds the Figures 1-3 sweep over that same workload.
	k := newRNG(w.seed, 3).intn(coldSeeds) * len(coldPolicies())
	pts := w.points[k : k+len(coldPolicies())]
	return ledgerSample{
		points: pts,
		experiments: []experimentCall{{name: "sweep_maxsd", params: map[string]any{
			"workloads": []string{coldPreset}, "scale": coldScale, "seed": pts[0].Seed}}},
	}
}

func (w *coldSweep) usage() (uint64, uint64) { return w.engine.CacheStats() }

func (w *coldSweep) close() {}

// digest hashes result encodings in order.
func digest(results [][]byte) string {
	h := sha256.New()
	for _, b := range results {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("sha256:%x (%d results)", h.Sum(nil)[:16], len(results))
}
