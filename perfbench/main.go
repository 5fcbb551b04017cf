// Command perfbench is the repository benchmark. It runs one seeded
// workload — cold_sweep, warm_replay or served_fleet — in-process
// against this module's packages, checks every output it produces, and
// prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run re-issues a seeded sample of the workload's operations at every
// layer boundary and reports the per-layer ledger instead. See
// README.md for the workloads and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its workload anew;
// setup_s is the median.
const setupReps = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames are the workloads in the order "-workload all" runs them.
var workloadNames = []string{"cold_sweep", "warm_replay", "served_fleet"}

func main() {
	name := flag.String("workload", "", "cold_sweep, warm_replay, served_fleet, or all three in turn")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	out := flag.String("out", ".bench_build", "directory for journals and span logs")
	flag.Parse()

	// The servers log every campaign; the benchmark's output is its own.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var err error
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	for _, n := range names {
		if _, werr := newWorkload(n, *seed); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	// With several workloads the report sums the counts and prefixes
	// each metric with its workload's name.
	ctx := context.Background()
	total := report{Correct: true, Metrics: make(map[string]metric)}
	for _, n := range names {
		w, _ := newWorkload(n, *seed) // validated above
		env := &runEnv{
			seed:    *seed,
			callers: runtime.NumCPU(),
			dur:     time.Duration(*seconds) * time.Second,
			tmp:     tmp,
			spans:   filepath.Join(*out, fmt.Sprintf("spans-%s-%d.ndjson", n, *seed)),
		}
		fmt.Printf("workload %s seed %d callers %d seconds %d trace %d\n", n, *seed, env.callers, *seconds, *trace)
		var rep report
		if *trace == 1 {
			rep, err = tracedRun(ctx, env, w)
		} else {
			rep, err = measuredRun(ctx, env, w)
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, m := range rep.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = m
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			if rep.Metrics != nil {
				// A failed output check: report the run as incorrect.
				printReport(total)
			}
			os.RemoveAll(tmp)
			os.Exit(1)
		}
	}
	os.RemoveAll(tmp)
	printReport(total)
}

func printReport(rep report) {
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runEnv carries the run's settings to the workloads.
type runEnv struct {
	seed    uint64
	callers int
	dur     time.Duration
	tmp     string // temporary directory, removed at exit
	spans   string // span log written by the traced run
}

// newWorkload builds the named workload with inputs drawn from seed.
func newWorkload(name string, seed uint64) (bench, error) {
	switch name {
	case "cold_sweep":
		return newColdSweep(seed), nil
	case "warm_replay":
		return newWarmReplay(seed), nil
	case "served_fleet":
		return newServedFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_sweep, warm_replay or served_fleet)", name)
}

// measuredRun is the untraced run: set up setupReps times, run the
// closed loop for the run's duration in calibrated segments, check the
// outputs, and report the end-to-end metrics.
func measuredRun(ctx context.Context, env *runEnv, w bench) (report, error) {
	setup, rawSetup, err := repeatSetup(ctx, env, w)
	defer w.close()
	if err != nil {
		return report{}, err
	}
	st, ref, err := calibratedLoop(ctx, env, w, env.dur)
	if err != nil {
		return incorrect(st), err
	}
	digest, err := w.verify(ctx)
	if err != nil {
		return incorrect(st), err
	}
	if err := checkGolden(ctx, env.seed); err != nil {
		return incorrect(st), err
	}
	p50, p99 := ref.percentile(50), ref.percentile(99)
	fmt.Printf("setup_s %.4f ref-s (%.4f s; median of %d setups)\n", setup, rawSetup, setupReps)
	fmt.Printf("throughput_ops_s %.2f ops/ref-s (%d ops in %.2f ref-s; %.2f ops/s in %.2f s)\n",
		ref.throughput(), ref.ops, ref.elapsed.Seconds(), st.throughput(), st.elapsed.Seconds())
	fmt.Printf("latency_p50_ms %.4f ref-ms (%.4f ms; n=%d)\n", p50, st.percentile(50), len(st.lat))
	fmt.Printf("latency_p99_ms %.4f ref-ms (%.4f ms; n=%d, %d beyond)\n", p99, st.percentile(99), len(st.lat), beyond(len(st.lat), 99))
	fmt.Printf("allocs_per_op %.2f count\n", st.allocsPerOp())
	fmt.Printf("failed_frac %.6f ratio (%d of %d)\n", st.failedFrac(), st.failed, st.ops)
	if st.firstFail != nil {
		fmt.Printf("first failure: %v\n", st.firstFail)
	}
	fmt.Printf("digest %s\n", digest)
	return report{
		Correct:   true,
		Attempted: st.ops,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":          {setup, "s"},
			"throughput_ops_s": {ref.throughput(), "ops/ref-s"},
			"latency_p50_ms":   {p50, "ref-ms"},
			"latency_p99_ms":   {p99, "ref-ms"},
			"allocs_per_op":    {st.allocsPerOp(), "count"},
		},
	}, nil
}

// incorrect is the report of a run whose output check failed.
func incorrect(st loopStats) report {
	return report{Attempted: max(st.ops, 1), Failed: st.failed, Metrics: map[string]metric{}}
}

// repeatSetup builds the workload setupReps times, each anew,
// leaving the last build in place, and returns the median time in
// reference seconds and in plain seconds. Each build is rescaled by a
// calibration burst run just before it.
func repeatSetup(ctx context.Context, env *runEnv, w bench) (ref, raw float64, err error) {
	refs := make([]float64, 0, setupReps)
	raws := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC() // leave no garbage of the previous build to collect
		rate := calibrate(env.callers, calibSlice)
		begin := time.Now()
		if err := w.setup(ctx, env); err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		t := time.Since(begin).Seconds()
		raws = append(raws, t)
		refs = append(refs, t*rate/refRate)
	}
	return median(refs), median(raws), nil
}
