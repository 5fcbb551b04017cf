package sdpolicy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"sdpolicy/internal/reducer"
)

const campaignTestScale = 0.08

// sequentialSweepMaxSD replicates the pre-campaign sequential
// implementation of the sweep_maxsd experiment verbatim: one workload
// at a time, the static baseline first, then every variant, all on
// this goroutine.
// The campaign runner must reproduce its output exactly.
func sequentialSweepMaxSD(workloads []string, scale float64, seed uint64) ([]SweepRow, error) {
	var rows []SweepRow
	for _, name := range workloads {
		w, err := NewWorkload(name, scale, seed)
		if err != nil {
			return nil, err
		}
		base, err := Simulate(w, Options{Policy: "static"})
		if err != nil {
			return nil, err
		}
		for _, v := range MaxSDVariants() {
			res, err := Simulate(w, v.Options)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SweepRow{
				Workload:        name,
				Variant:         v.Label,
				Makespan:        ratio(float64(res.Makespan), float64(base.Makespan)),
				AvgResponse:     ratio(res.AvgResponse, base.AvgResponse),
				AvgSlowdown:     ratio(res.AvgSlowdown, base.AvgSlowdown),
				MalleableStarts: res.MalleableStarts,
			})
		}
	}
	return rows, nil
}

func TestSweepMaxSDParallelMatchesSequentialReference(t *testing.T) {
	workloads := []string{"wl1", "wl5"}
	want, err := sequentialSweepMaxSD(workloads, campaignTestScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		engine := NewEngine(workers, 64)
		got, err := RunExperiment[[]SweepRow](context.Background(), engine, "sweep_maxsd",
			reducer.Params{"workloads": workloads, "scale": campaignTestScale})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestCampaignParallelEqualsSingleWorkerAcrossExperiments(t *testing.T) {
	seq := NewEngine(1, 128)
	par := NewEngine(8, 128)
	ctx := context.Background()

	for _, tc := range []struct {
		name, experiment string
		params           reducer.Params
	}{
		{"runtime-models", "runtime_models", reducer.Params{"workloads": []string{"wl1"}}},
		{"malleable-fraction", "ablate_malleable_fraction", reducer.Params{"fractions": []float64{0, 0.5, 1}}},
		{"policies", "compare_policies", reducer.Params{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.params["scale"] = campaignTestScale
			a, err := seq.Experiment(ctx, tc.experiment, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Experiment(ctx, tc.experiment, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("parallel summary %+v != sequential %+v", b, a)
			}
		})
	}
}

func TestCampaignBaselineSimulatesOnce(t *testing.T) {
	engine := NewEngine(8, 64)
	sweep := reducer.Params{"workloads": []string{"wl1"}, "scale": campaignTestScale}
	// One sweep: per workload 1 baseline + 5 variants, all unique.
	if _, err := engine.Experiment(context.Background(), "sweep_maxsd", sweep); err != nil {
		t.Fatal(err)
	}
	hits, misses := engine.CacheStats()
	if misses != 6 {
		t.Fatalf("first sweep simulated %d points, want 6", misses)
	}
	if hits != 0 {
		t.Fatalf("first sweep had %d unexpected cache hits", hits)
	}
	// An ablation on the same workload shares the canonical static
	// baseline with the sweep: exactly one cached point is reused.
	if _, err := engine.Experiment(context.Background(), "ablate_sharing_factor",
		reducer.Params{"scale": campaignTestScale, "factors": []float64{0.25}}); err != nil {
		t.Fatal(err)
	}
	hits, misses = engine.CacheStats()
	if hits != 1 {
		t.Fatalf("baseline not shared through cache: hits=%d", hits)
	}
	if misses != 7 {
		t.Fatalf("ablation simulated %d new points, want 1 (total 7, got %d)", misses-6, misses)
	}
	// Re-running the full sweep is now 100% cache hits.
	if _, err := engine.Experiment(context.Background(), "sweep_maxsd", sweep); err != nil {
		t.Fatal(err)
	}
	_, misses = engine.CacheStats()
	if misses != 7 {
		t.Fatalf("repeated sweep re-simulated: misses=%d, want 7", misses)
	}
}

func TestCampaignCanonicalOptionsShareCacheEntries(t *testing.T) {
	engine := NewEngine(4, 64)
	ctx := context.Background()
	// Zero-value options and their spelled-out defaults are one point.
	a, err := engine.SimulatePoint(ctx, NewPoint("wl1", campaignTestScale, 1, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.SimulatePoint(ctx, NewPoint("wl1", campaignTestScale, 1, Options{
		Policy: "static", Model: "ideal", SharingFactor: 0.5, MaxMates: 2,
		CandidateCap: 64, BackfillDepth: 100, Backfill: "conservative",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("canonically equal points did not share one cached result")
	}
	_, misses := engine.CacheStats()
	if misses != 1 {
		t.Fatalf("%d simulations for one canonical point", misses)
	}
}

func TestCampaignCancellation(t *testing.T) {
	engine := NewEngine(2, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the campaign starts: no point may simulate
	_, err := engine.Experiment(ctx, "sweep_maxsd",
		reducer.Params{"workloads": []string{"wl1", "wl2"}, "scale": campaignTestScale})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, misses := engine.CacheStats()
	if misses != 0 {
		t.Fatalf("%d points simulated despite pre-cancelled context", misses)
	}
}

func TestCampaignRejectsNaNPoints(t *testing.T) {
	engine := NewEngine(2, 16)
	ctx := context.Background()
	nan := math.NaN()
	for name, p := range map[string]Point{
		"scale":          {Workload: "wl1", Scale: nan, Seed: 1, MalleableFraction: -1},
		"fraction":       {Workload: "wl1", Scale: 0.1, Seed: 1, MalleableFraction: nan},
		"max-slowdown":   NewPoint("wl1", 0.1, 1, Options{Policy: "sd", MaxSlowdown: nan}),
		"sharing-factor": NewPoint("wl1", 0.1, 1, Options{Policy: "sd", SharingFactor: nan}),
		"oversub":        NewPoint("wl1", 0.1, 1, Options{Policy: "oversubscribe", OversubPenalty: nan}),
	} {
		res, err := engine.SimulatePoint(ctx, p)
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s=NaN: res=%v err=%v, want ErrBadInput", name, res, err)
		}
	}
	_, misses := engine.CacheStats()
	if misses != 0 {
		t.Fatalf("%d points simulated despite NaN inputs", misses)
	}
}

func TestCampaignErrorPropagation(t *testing.T) {
	engine := NewEngine(4, 16)
	_, err := engine.Run(context.Background(), []Point{
		NewPoint("wl1", campaignTestScale, 1, Options{}),
		NewPoint("wl-nope", campaignTestScale, 1, Options{}),
	})
	if err == nil {
		t.Fatal("unknown workload not reported")
	}
	if _, err := engine.SimulatePoint(context.Background(),
		NewPoint("wl1", campaignTestScale, 1, Options{Policy: "bogus"})); err == nil {
		t.Fatal("unknown policy not reported")
	}
}

func TestCampaignProgressAndConcurrentUse(t *testing.T) {
	engine := NewEngine(4, 64)
	var mu sync.Mutex
	final := 0
	engine.OnProgress(func(done, total int) {
		mu.Lock()
		if done == total {
			final++
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := engine.Experiment(context.Background(), "sweep_maxsd",
				reducer.Params{"workloads": []string{"wl1"}, "scale": campaignTestScale}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	_, misses := engine.CacheStats()
	if misses != 6 {
		t.Fatalf("concurrent identical sweeps simulated %d points, want 6", misses)
	}
	mu.Lock()
	defer mu.Unlock()
	if final == 0 {
		t.Fatal("progress callback never reached done == total")
	}
}

func TestDeriveSeedReplicateZeroIsBase(t *testing.T) {
	if DeriveSeed(42, 0) != 42 {
		t.Fatal("replicate 0 must keep the base seed")
	}
	if DeriveSeed(42, 1) == 42 {
		t.Fatal("replicate 1 not derived")
	}
	if DeriveSeed(42, 1) != DeriveSeed(42, 1) {
		t.Fatal("derived seed not deterministic")
	}
}

func ExampleEngine_Experiment() {
	engine := NewEngine(4, 64)
	summary, err := engine.Experiment(context.Background(), "sweep_maxsd",
		reducer.Params{"workloads": []string{"wl5"}, "scale": 0.15})
	if err != nil {
		panic(err)
	}
	rows := summary.([]SweepRow)
	fmt.Println("rows:", len(rows))
	fmt.Println("improved:", rows[1].AvgSlowdown < 1)
	// Output:
	// rows: 5
	// improved: true
}
