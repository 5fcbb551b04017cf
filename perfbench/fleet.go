package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdpolicy"
	"sdpolicy/internal/workload"
)

// served_fleet: an in-process coordinator with a journal, in front of
// two in-process workers, all on loopback. One client per core replays
// a seeded sequence of operations: mostly warm /v1/simulate reads, some
// /v1/campaigns runs whose points are partly fresh seeds, and a few
// warm /v1/experiments runs. It is the only workload that drives HTTP,
// the journal and the fleet fan-out.
const (
	fleetScale     = 0.05
	fleetSeeds     = 2  // generator seeds of the warm read set
	fleetWorkers   = 2  // worker servers behind the coordinator
	campaignPoints = 20 // points per /v1/campaigns run
	freshPoints    = 2  // of which fresh seeds, simulated on demand
	// Each caller repeats a cycle of mixCycle operations: one
	// /v1/experiments run, two /v1/campaigns runs and 17 /v1/simulate
	// reads. A fixed cycle rather than a random draw keeps the mix, and
	// with it allocs_per_op, the same from seed to seed.
	mixCycle = 20
)

var fleetPresets = []string{"wl1", "wl2", "wl3", "wl5"}

// fleetOptions are the static baseline and the Figures 1-3 variants,
// so the read set covers every point of the fleet's sweep_maxsd runs.
func fleetOptions() []sdpolicy.Options {
	opts := []sdpolicy.Options{{Policy: "static"}}
	for _, v := range sdpolicy.MaxSDVariants() {
		opts = append(opts, v.Options)
	}
	return opts
}

type servedFleet struct {
	seed        uint64
	readSet     []sdpolicy.Point
	readBodies  [][]byte
	experiments []experimentCall
	expBodies   [][]byte

	engines []*sdpolicy.Engine // coordinator first, then the workers
	fleet   *fleet
	hc      *http.Client
	rngs    []*rng  // per-caller operation streams
	ops     []int64 // per-caller operation counts, for the mix cycle
	bufs    []callerBufs
	setups  int
	ids     atomic.Int64 // campaign and experiment IDs, unique per fleet

	mu        sync.Mutex
	served    map[sdpolicy.Point][]byte // first served encoding per point
	summaries [][]byte                  // first served summary per experiment
}

type callerBufs struct{ raw, out bytes.Buffer }

func newServedFleet(seed uint64) *servedFleet {
	r := newRNG(seed, 5)
	w := &servedFleet{seed: seed}
	seeds := make([]uint64, fleetSeeds)
	for i := range seeds {
		seeds[i] = r.genSeed()
	}
	for _, name := range fleetPresets {
		for _, s := range seeds {
			for _, opt := range fleetOptions() {
				w.readSet = append(w.readSet, sdpolicy.NewPoint(name, fleetScale, s, opt))
			}
		}
	}
	for _, s := range seeds {
		w.experiments = append(w.experiments, experimentCall{name: "sweep_maxsd", params: map[string]any{
			"workloads": fleetPresets, "scale": fleetScale, "seed": s}})
	}
	return w
}

// setup starts from an empty generation cache, starts the fleet, and
// warms the coordinator's engine (which serves /v1/simulate) and every
// worker's engine with the read set.
func (w *servedFleet) setup(ctx context.Context, env *runEnv) error {
	workload.Shared = workload.NewCache(16)
	if w.readBodies == nil {
		for _, p := range w.readSet {
			b, err := simulateBody(p)
			if err != nil {
				return err
			}
			w.readBodies = append(w.readBodies, b)
		}
		for _, c := range w.experiments {
			b, err := experimentBody(c)
			if err != nil {
				return err
			}
			w.expBodies = append(w.expBodies, b)
		}
	}
	w.engines = make([]*sdpolicy.Engine, 1+fleetWorkers)
	for i := range w.engines {
		w.engines[i] = sdpolicy.NewEngine(env.callers, 4096)
	}
	w.setups++
	f, err := startFleet(w.engines[0], w.engines[1:],
		filepath.Join(env.tmp, fmt.Sprintf("fleet-journal-%d", w.setups)))
	if err != nil {
		return err
	}
	w.fleet = f
	for _, e := range w.engines {
		if _, err := e.Run(ctx, w.readSet); err != nil {
			return err
		}
	}
	w.hc = newClient(env.callers)
	w.rngs = make([]*rng, env.callers)
	w.ops = make([]int64, env.callers)
	for c := range w.rngs {
		w.rngs[c] = newRNG(w.seed, 10+uint64(c))
	}
	w.bufs = make([]callerBufs, env.callers)
	w.served = make(map[sdpolicy.Point][]byte)
	w.summaries = make([][]byte, len(w.experiments))
	return nil
}

func (w *servedFleet) op(ctx context.Context, caller int) (time.Duration, error) {
	r := w.rngs[caller]
	pos := w.ops[caller]
	w.ops[caller]++
	switch pos % mixCycle {
	case 0:
		k := r.intn(len(w.experiments))
		begin := time.Now()
		summary, err := runExperiment(ctx, w.hc, w.fleet.url, fmt.Sprintf("exp-%d", w.ids.Add(1)), w.expBodies[k])
		lat := time.Since(begin)
		if err != nil {
			return lat, err
		}
		return lat, w.checkSummary(k, summary)
	case mixCycle / 4, 3 * mixCycle / 4:
		n := w.ids.Add(1)
		points := w.campaign(r, n)
		body, err := campaignBody(points)
		if err != nil {
			return 0, err
		}
		id := fmt.Sprintf("camp-%d", n)
		begin := time.Now()
		err = runCampaign(ctx, w.hc, w.fleet.url, id, body, func(i int, res []byte) error {
			if i < 0 || i >= len(points) {
				return fmt.Errorf("served_fleet: campaign %s: result index %d out of range", id, i)
			}
			return w.check(points[i], res)
		})
		return time.Since(begin), err
	default:
		i := r.intn(len(w.readSet))
		b := &w.bufs[caller]
		begin := time.Now()
		_, err := simulate(ctx, w.hc, w.fleet.url, w.readBodies[i], &b.raw, &b.out)
		lat := time.Since(begin)
		if err != nil {
			return lat, err
		}
		return lat, w.check(w.readSet[i], b.out.Bytes())
	}
}

// campaign draws the n-th campaign: warm points from the read set with
// freshPoints of them replaced by never-seen seeds of a small preset.
func (w *servedFleet) campaign(r *rng, n int64) []sdpolicy.Point {
	points := make([]sdpolicy.Point, campaignPoints)
	for i := range points {
		points[i] = w.readSet[r.intn(len(w.readSet))]
	}
	opts := []sdpolicy.Options{{Policy: "static"}, {Policy: "sd", MaxSlowdown: 10}}
	for j := 0; j < freshPoints; j++ {
		// Fresh seeds lie above the read set's [1, 1e9] range.
		fresh := 1_000_000_000 + newRNG(w.seed^uint64(n)<<8^uint64(j), 6).genSeed()
		name := fleetPresets[r.intn(len(fleetPresets))]
		points[r.intn(campaignPoints)] = sdpolicy.NewPoint(name, fleetScale, fresh, opts[r.intn(len(opts))])
	}
	return points
}

// check requires a served result to encode exactly like the first one
// served for the same point; verify compares those with local runs.
func (w *servedFleet) check(p sdpolicy.Point, res []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.served[p]
	if !ok {
		w.served[p] = append([]byte(nil), res...)
		return nil
	}
	if !bytes.Equal(first, res) {
		return fmt.Errorf("served_fleet: point %s served two different results", pointKey(p))
	}
	return nil
}

func (w *servedFleet) checkSummary(k int, summary []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.summaries[k] == nil {
		w.summaries[k] = summary
		return nil
	}
	if !bytes.Equal(w.summaries[k], summary) {
		return fmt.Errorf("served_fleet: experiment %d served two different summaries", k)
	}
	return nil
}

// verify runs every served point on a fresh local engine and requires
// byte-identical results, and every served experiment summary to match
// the local Engine.Experiment's. The digest covers the read set and the
// experiment summaries, which depend on the seed alone.
func (w *servedFleet) verify(ctx context.Context) (string, error) {
	local := sdpolicy.NewEngine(0, 1<<16)
	points := make([]sdpolicy.Point, 0, len(w.served))
	for p := range w.served {
		points = append(points, p)
	}
	points = append(points, w.readSet...)
	results, err := local.Run(ctx, points)
	if err != nil {
		return "", err
	}
	want := make(map[sdpolicy.Point][]byte, len(points))
	for i, p := range points {
		b, err := json.Marshal(results[i])
		if err != nil {
			return "", err
		}
		want[p] = b
	}
	for p, got := range w.served {
		if !bytes.Equal(got, want[p]) {
			return "", fmt.Errorf("served_fleet: point %s differs from a local Engine.SimulatePoint", pointKey(p))
		}
	}
	var sums [][]byte
	for _, p := range w.readSet {
		sums = append(sums, want[p])
	}
	for k, c := range w.experiments {
		v, err := local.Experiment(ctx, c.name, c.params)
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		if w.summaries[k] != nil && !bytes.Equal(w.summaries[k], b) {
			return "", fmt.Errorf("served_fleet: %s summary differs from the local Engine.Experiment", c.name)
		}
		sums = append(sums, b)
	}
	fmt.Printf("checked %d distinct served points against local runs\n", len(w.served))
	return digest(sums), nil
}

func (w *servedFleet) sample() ledgerSample {
	// A seeded 20-point warm campaign drawn from the read set without
	// repeats.
	r := newRNG(w.seed, 7)
	idx := make([]int, len(w.readSet))
	for i := range idx {
		idx[i] = i
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = idx[:campaignPoints]
	sort.Ints(idx)
	pts := make([]sdpolicy.Point, len(idx))
	for i, k := range idx {
		pts[i] = w.readSet[k]
	}
	return ledgerSample{points: pts, experiments: w.experiments}
}

func (w *servedFleet) usage() (hits, misses uint64) {
	for _, e := range w.engines {
		h, m := e.CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

func (w *servedFleet) close() {
	if w.fleet != nil {
		w.fleet.close()
		w.fleet = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}
