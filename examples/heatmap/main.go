// Category heatmap analysis (Section 4.2, Figures 4-6 of the paper):
// which (requested nodes × runtime) job categories gain most from
// SD-Policy on the large Curie-like workload.
//
//	go run ./examples/heatmap
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"runtime"

	"sdpolicy"
)

func main() {
	engine := sdpolicy.NewEngine(runtime.GOMAXPROCS(0), 16)
	an, err := sdpolicy.RunExperiment[*sdpolicy.BigAnalysis](context.Background(), engine,
		"big_workload", map[string]any{"scale": 0.05})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wl4: avg slowdown static %.1f vs SD(MAXSD 10) %.1f (%.1f%% better)\n\n",
		an.Static.AvgSlowdown, an.SD.AvgSlowdown,
		100*(an.Static.AvgSlowdown-an.SD.AvgSlowdown)/an.Static.AvgSlowdown)

	print2D("slowdown ratio static/SD (>1 = SD better):", an.SlowdownRatio)
	print2D("wait-time ratio static/SD:", an.WaitRatio)

	fmt.Println("Expected shape (paper §4.2): small, short job categories show")
	fmt.Println("the largest gains; large long jobs move least.")
}

func print2D(title string, cells [][]float64) {
	nodeLabels, timeLabels := sdpolicy.HeatmapLabels()
	fmt.Println(title)
	fmt.Printf("%-16s", "")
	for _, tl := range timeLabels {
		fmt.Printf("%8s", tl)
	}
	fmt.Println()
	for i, row := range cells {
		hasData := false
		for _, v := range row {
			if !math.IsNaN(v) {
				hasData = true
			}
		}
		if !hasData {
			continue
		}
		fmt.Printf("%-16s", nodeLabels[i])
		for _, v := range row {
			if math.IsNaN(v) {
				fmt.Printf("%8s", "-")
			} else {
				fmt.Printf("%8.2f", v)
			}
		}
		fmt.Println()
	}
	fmt.Println()
}
