// Real-run emulation (Section 4.4, Figure 9 of the paper): the Table 2
// application mix — PILS, STREAM, CoreNeuron, NEST, Alya — on the
// 49-node MareNostrum4 partition, simulated with per-application
// scalability curves and the node power model.
//
//	go run ./examples/realrun
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"

	"sdpolicy"
)

func main() {
	w, err := sdpolicy.NewWorkload("wl5", 1.0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d jobs on %d nodes (%d cores)\n",
		w.Name(), w.Jobs(), w.Nodes(), w.Cores())
	fmt.Println("\napplication mix (Table 2):")
	shares := w.AppShares()
	apps := make([]string, 0, len(shares))
	for app := range shares {
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return shares[apps[i]] > shares[apps[j]] })
	for _, app := range apps {
		fmt.Printf("  %-12s %5.1f%%\n", app, 100*shares[app])
	}

	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 16)
	rep, err := sdpolicy.RunExperiment[*sdpolicy.RealRunReport](context.Background(), engine,
		"real_run", map[string]any{"scale": 1.0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSD-Policy improvement over static backfill (Figure 9):")
	fmt.Printf("  %-14s %7.1f%%   (paper: 7%%)\n", "makespan", rep.MakespanPct)
	fmt.Printf("  %-14s %7.1f%%   (paper: ~16%%)\n", "avg response", rep.AvgResponsePct)
	fmt.Printf("  %-14s %7.1f%%   (paper: ~16%%)\n", "avg slowdown", rep.AvgSlowdownPct)
	fmt.Printf("  %-14s %7.1f%%   (paper: 6%%)\n", "energy", rep.EnergyPct)
	fmt.Printf("\n%d of %d jobs were scheduled with malleability\n",
		rep.SD.MalleableStarts, rep.SD.Jobs)
}
