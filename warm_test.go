package sdpolicy

import (
	"context"
	"encoding/json"
	"testing"

	"sdpolicy/internal/reducer"
	"sdpolicy/internal/workload"
)

// scanMaxJobNodes is the brute-force reference for the stored
// MaxJobNodes: the largest node request over every job.
func scanMaxJobNodes(w Workload) int {
	m := 0
	for _, j := range w.base().Jobs {
		m = max(m, j.ReqNodes)
	}
	return m
}

func TestMaxJobNodesMatchesScan(t *testing.T) {
	check := func(label string, w Workload) {
		t.Helper()
		want := scanMaxJobNodes(w)
		if want == 0 {
			t.Fatalf("%s: empty job stream", label)
		}
		if got := w.MaxJobNodes(); got != want {
			t.Fatalf("%s: MaxJobNodes %d, scan says %d", label, got, want)
		}
		// Derivations never change node requests, so a derived
		// variant reports its base's value.
		d, err := w.Derive(MalleableFractionDerivation(0.5), TagNodesDerivation("bigmem", 0.5))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := d.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if spec.MaxJobNodes != want || d.MaxJobNodes() != want {
			t.Fatalf("%s derived: spec %d, handle %d, want %d", label, spec.MaxJobNodes, d.MaxJobNodes(), want)
		}
	}
	for _, name := range workload.Names() {
		for _, scale := range []float64{0.05, 0.1} {
			w, err := NewWorkload(name, scale, 3)
			if err != nil {
				t.Fatal(err)
			}
			check(name, w)
		}
	}
	info, err := RegisterTraceFile("testdata/sample.swf")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(info.Ref, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("sample.swf trace ref", w)
	w, err = LoadSWF("testdata/sample.swf", 20, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	check("sample.swf LoadSWF", w)
	if (Workload{}).MaxJobNodes() != 0 {
		t.Fatal("zero Workload reports a node request")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTable1MatchesInventoryScan checks that the table1 experiment's
// summary is byte-identical to the inventory computed the direct way —
// every job scanned for its node request, every static baseline
// simulated point by point — and that the rows its fold streams are
// the summary's rows.
func TestTable1MatchesInventoryScan(t *testing.T) {
	const scale, seed = 0.03, 2
	ctx := context.Background()
	engine := NewEngine(2, 16)
	var want []Table1Row
	for _, name := range workload.Names() {
		w, err := NewWorkload(name, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.SimulatePoint(ctx, NewPoint(name, scale, seed, Options{Policy: "static"}))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Table1Row{
			ID: name, Name: w.Name(), Jobs: w.Jobs(), Nodes: w.Nodes(), Cores: w.Cores(),
			MaxJobNodes: scanMaxJobNodes(w), AvgResponse: res.AvgResponse,
			AvgSlowdown: res.AvgSlowdown, Makespan: res.Makespan,
		})
	}
	wantJSON := mustJSON(t, want)

	got, err := RunExperiment[[]Table1Row](ctx, engine, "table1", reducer.Params{"scale": scale, "seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := mustJSON(t, got); gotJSON != wantJSON {
		t.Fatalf("table1 summary\n got %s\nwant %s", gotJSON, wantJSON)
	}

	inst, err := Experiments().Get("table1").Instance(reducer.Params{"scale": scale, "seed": uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.Run(ctx, inst.Points())
	if err != nil {
		t.Fatal(err)
	}
	var emitted []Table1Row
	for i, res := range results {
		rows, err := inst.Fold(i, res)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			emitted = append(emitted, r.(Table1Row))
		}
	}
	if emittedJSON := mustJSON(t, emitted); emittedJSON != wantJSON {
		t.Fatalf("table1 fold rows\n got %s\nwant %s", emittedJSON, wantJSON)
	}
}

// TestWarmReplayAllocs gates the memoised path's allocations, so a
// regression on it fails here rather than only in a benchmark. Every
// point is cached, so a replay allocates only for key
// canonicalisation, the batch result slice and the experiment's fold.
// The ceilings are the measured counts plus 10%.
func TestWarmReplayAllocs(t *testing.T) {
	const scale, seed = 0.02, 1
	ctx := context.Background()
	engine := NewEngine(2, 128)
	workloads := []string{"wl1", "wl2", "wl3", "wl5"}
	table1 := reducer.Params{"scale": scale, "seed": uint64(seed)}
	sweep := func() {
		params := reducer.Params{"workloads": workloads, "scale": scale, "seed": seed}
		if _, err := RunExperiment[[]SweepRow](ctx, engine, "sweep_maxsd", params); err != nil {
			t.Fatal(err)
		}
	}
	inventory := func() {
		if _, err := engine.Experiment(ctx, "table1", table1); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	inventory()
	_, misses := engine.CacheStats()
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{
		{"RunExperiment(sweep_maxsd)", sweep, 73},
		{"Experiment(table1)", inventory, 25},
	} {
		got := testing.AllocsPerRun(20, c.run)
		t.Logf("warm %s: %v allocs per run, ceiling %v", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("warm %s: %v allocs per run, over the ceiling %v", c.name, got, c.ceiling)
		}
	}
	if _, after := engine.CacheStats(); after != misses {
		t.Fatalf("warm replays simulated %d points", after-misses)
	}
}
