// MAX_SLOWDOWN sweep (Figures 1-3 of the paper): how the mate cut-off
// parameter changes makespan, response time and slowdown relative to
// static backfill, on the Cirne workload.
//
//	go run ./examples/maxsd_sweep
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"sdpolicy"
)

func main() {
	// Figures 1-3 sweep wl1-wl4; one workload keeps the example quick.
	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 16)
	rows, err := sdpolicy.RunExperiment[[]sdpolicy.SweepRow](context.Background(), engine,
		"sweep_maxsd", map[string]any{"workloads": []string{"wl1"}, "scale": 0.15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wl1 (Cirne model), normalised to static backfill — lower is better")
	fmt.Printf("%-10s %10s %10s %10s %12s\n",
		"variant", "makespan", "response", "slowdown", "mall-starts")
	for _, r := range rows {
		fmt.Printf("%-10s %10.3f %10.3f %10.3f %12d\n",
			r.Variant, r.Makespan, r.AvgResponse, r.AvgSlowdown, r.MalleableStarts)
	}
	fmt.Println("\nExpected shape (paper §4.1): slowdown improves as the cut-off")
	fmt.Println("rises, and even MAXSD infinite never loses to static because the")
	fmt.Println("policy only applies malleability when the prediction improves.")
}
