package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"sdpolicy"
	"sdpolicy/internal/serve"
)

// TestExperimentRemoteRendersLikeLocal runs every registry experiment
// the way -experiment does, once locally and once against an sdserve
// instance, and requires byte-identical output: the remote summary
// decodes through the experiment's descriptor into the type the local
// run renders. real_trace replays the sample trace bound from -trace.
func TestExperimentRemoteRendersLikeLocal(t *testing.T) {
	info, err := sdpolicy.RegisterTraceFile("../../testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(sdpolicy.NewEngine(2, 64), 4).Handler())
	t.Cleanup(srv.Close)
	r := &runner{ctx: context.Background(), engine: sdpolicy.NewEngine(2, 64),
		scale: 0.03, seed: 1, traces: []string{info.Ref}}
	for _, d := range sdpolicy.Experiments().List() {
		t.Run(d.Name, func(t *testing.T) {
			var local, remote bytes.Buffer
			if err := r.experiment(&local, d, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.experiment(&remote, d, []string{srv.URL}); err != nil {
				t.Fatal(err)
			}
			if local.Len() == 0 || local.String() != remote.String() {
				t.Fatalf("remote output differs from local:\n--- local\n%s--- remote\n%s", &local, &remote)
			}
		})
	}
}

// TestExperimentBindsOneTrace: -trace binds to an experiment's trace
// parameter only when exactly one trace was registered.
func TestExperimentBindsOneTrace(t *testing.T) {
	d := sdpolicy.Experiments().Get("real_trace")
	r := &runner{scale: 0.5, seed: 3, traces: []string{"trace:aa"}}
	params, err := r.params(d)
	if err != nil || params["trace"] != "trace:aa" {
		t.Fatalf("one trace: params %v, err %v", params, err)
	}
	if _, ok := params["scale"]; ok {
		t.Fatal("-scale bound to an experiment without a scale parameter")
	}
	r.traces = append(r.traces, "trace:bb")
	if _, err := r.params(d); err == nil {
		t.Fatal("two traces bound to one trace parameter")
	}
	r.traces = nil
	if params, err := r.params(sdpolicy.Experiments().Get("table1")); err != nil ||
		params["scale"] != 0.5 || params["seed"] != uint64(3) {
		t.Fatalf("table1: params %v, err %v", params, err)
	}
}
