// Runtime model comparison (Figure 8 of the paper): the ideal model
// (Eq. 5, perfect load rebalancing) against the worst-case model (Eq. 6,
// progress limited by the most-shrunk node) under SD-Policy DynAVGSD.
//
//	go run ./examples/runtime_models
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"sdpolicy"
)

func main() {
	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 16)
	rows, err := sdpolicy.RunExperiment[[]sdpolicy.ModelRow](context.Background(), engine,
		"runtime_models", map[string]any{"workloads": []string{"wl1", "wl2"}, "scale": 0.15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SD-Policy DynAVGSD normalised to static backfill (lower is better)")
	fmt.Printf("%-5s %-7s %10s %10s %10s\n", "WL", "model", "makespan", "response", "slowdown")
	for _, r := range rows {
		fmt.Printf("%-5s %-7s %10.3f %10.3f %10.3f\n",
			r.Workload, r.Model, r.Makespan, r.AvgResponse, r.AvgSlowdown)
	}
	fmt.Println("\nExpected shape (paper §4.3): the worst-case model costs extra")
	fmt.Println("response time on wl1 where user estimates are loose, and nothing")
	fmt.Println("on wl2 where requested times are exact, because precise requests")
	fmt.Println("let the policy avoid creating imbalance.")
}
