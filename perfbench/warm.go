package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"sdpolicy"
	"sdpolicy/internal/reducer"
	"sdpolicy/internal/workload"
)

// warm_replay: setup fills an engine's result cache with every point of
// a rotation of registry experiments, then the callers replay
// Engine.Experiment round-robin over the rotation. The kernel does no
// work: time goes to key canonicalisation, the LRU, singleflight, and
// the reducer's parameter resolution and fold.
const (
	warmScale = 0.05
	// tracePath is the committed SWF sample replayed by real_trace; it
	// exercises trace-ref canonicalisation.
	tracePath = "testdata/sample.swf"
)

// experimentCall is one Engine.Experiment invocation.
type experimentCall struct {
	name   string
	params reducer.Params
	want   []byte // the summary's encoding, computed cold in setup
}

type warmReplay struct {
	seed     uint64
	rotation []experimentCall
	engine   *sdpolicy.Engine
	next     atomic.Int64
	bufs     []*bytes.Buffer // per-caller encoding buffers
	encs     []*json.Encoder
}

func newWarmReplay(seed uint64) *warmReplay { return &warmReplay{seed: seed} }

// buildRotation draws the rotation's seeds; the trace ref is known only
// once the trace is registered.
func (w *warmReplay) buildRotation(traceRef string) []experimentCall {
	r := newRNG(w.seed, 4)
	call := func(name string, params reducer.Params) experimentCall {
		if _, ok := params["trace"]; !ok {
			params["scale"], params["seed"] = warmScale, r.genSeed()
		}
		return experimentCall{name: name, params: params}
	}
	return []experimentCall{
		call("sweep_maxsd", reducer.Params{"workloads": []string{"wl1", "wl2", "wl3", "wl5"}}),
		call("table1", reducer.Params{}),
		call("compare_policies", reducer.Params{"workload": "wl3"}),
		call("ablate_max_mates", reducer.Params{"workload": "wl1"}),
		call("ablate_malleable_fraction", reducer.Params{"workload": "wl2"}),
		call("real_trace", reducer.Params{"trace": traceRef}),
	}
}

// setup starts from an empty generation cache, registers the trace,
// and runs every rotation experiment cold, keeping its summary bytes.
func (w *warmReplay) setup(ctx context.Context, env *runEnv) error {
	workload.Shared = workload.NewCache(16)
	info, err := sdpolicy.RegisterTraceFile(tracePath)
	if err != nil {
		return err
	}
	w.rotation = w.buildRotation(info.Ref)
	w.engine = sdpolicy.NewEngine(env.callers, 4096)
	w.next.Store(0)
	for i := range w.rotation {
		c := &w.rotation[i]
		v, err := w.engine.Experiment(ctx, c.name, c.params)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if c.want, err = json.Marshal(v); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	w.bufs = make([]*bytes.Buffer, env.callers)
	w.encs = make([]*json.Encoder, env.callers)
	for i := range w.bufs {
		w.bufs[i] = new(bytes.Buffer)
		w.encs[i] = json.NewEncoder(w.bufs[i])
	}
	return nil
}

// op replays the next rotation experiment and requires its summary to
// encode byte-identically to the cold one. The encoding reuses the
// caller's buffer so the check adds few allocations.
func (w *warmReplay) op(ctx context.Context, caller int) (time.Duration, error) {
	c := &w.rotation[int(w.next.Add(1)-1)%len(w.rotation)]
	begin := time.Now()
	v, err := w.engine.Experiment(ctx, c.name, c.params)
	lat := time.Since(begin)
	if err != nil {
		return lat, fmt.Errorf("%w: %v", errRefused, err)
	}
	buf := w.bufs[caller]
	buf.Reset()
	if err := w.encs[caller].Encode(v); err != nil {
		return lat, err
	}
	if !bytes.Equal(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), c.want) {
		return lat, fmt.Errorf("warm_replay: %s summary differs from the cold one", c.name)
	}
	return lat, nil
}

func (w *warmReplay) verify(context.Context) (string, error) {
	sums := make([][]byte, len(w.rotation))
	for i, c := range w.rotation {
		sums[i] = c.want
	}
	return digest(sums), nil
}

func (w *warmReplay) sample() ledgerSample {
	// The kernel sample is the MAXSD sweep's points (plain presets, so
	// the scheduler can be driven directly); the reducer layer covers
	// the whole rotation.
	sweep := w.rotation[0]
	inst, err := sdpolicy.Experiments().Get(sweep.name).Instance(sweep.params)
	if err != nil {
		panic(err) // the sweep ran in setup with these parameters
	}
	return ledgerSample{points: inst.Points(), experiments: w.rotation}
}

func (w *warmReplay) usage() (uint64, uint64) { return w.engine.CacheStats() }

func (w *warmReplay) close() {}
