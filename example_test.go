package sdpolicy_test

import (
	"context"
	"fmt"
	"runtime"

	"sdpolicy"
)

// The basic workflow: build a workload, simulate both policies, compare.
func Example() {
	w, err := sdpolicy.NewWorkload("wl5", 0.2, 1)
	if err != nil {
		panic(err)
	}
	static, err := sdpolicy.Simulate(w, sdpolicy.Options{Policy: "static"})
	if err != nil {
		panic(err)
	}
	sd, err := sdpolicy.Simulate(w, sdpolicy.Options{Policy: "sd", MaxSlowdown: 10})
	if err != nil {
		panic(err)
	}
	fmt.Println("SD-Policy improves avg slowdown:", sd.AvgSlowdown < static.AvgSlowdown)
	fmt.Println("jobs co-scheduled malleably:", sd.MalleableStarts > 0)
	// Output:
	// SD-Policy improves avg slowdown: true
	// jobs co-scheduled malleably: true
}

// Sweeping the MAX_SLOWDOWN cut-off reproduces Figures 1-3: the
// sweep_maxsd registry experiment, whose summary is a []SweepRow.
func ExampleRunExperiment() {
	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 64)
	rows, err := sdpolicy.RunExperiment[[]sdpolicy.SweepRow](context.Background(), engine,
		"sweep_maxsd", map[string]any{"workloads": []string{"wl5"}, "scale": 0.15, "seed": 1})
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Printf("%s: slowdown improved = %v\n", r.Variant, r.AvgSlowdown < 1)
	}
	// Output:
	// MAXSD 5: slowdown improved = true
	// MAXSD 10: slowdown improved = true
	// MAXSD 50: slowdown improved = true
	// MAXSD inf: slowdown improved = true
	// DynAVGSD: slowdown improved = true
}

// The real-run experiment reproduces Figure 9's four improvement bars.
func ExampleRunExperiment_realRun() {
	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 64)
	rep, err := sdpolicy.RunExperiment[*sdpolicy.RealRunReport](context.Background(), engine,
		"real_run", map[string]any{"scale": 0.3})
	if err != nil {
		panic(err)
	}
	fmt.Println("slowdown improved:", rep.AvgSlowdownPct > 0)
	fmt.Println("energy saved:", rep.EnergyPct > 0)
	// Output:
	// slowdown improved: true
	// energy saved: true
}
