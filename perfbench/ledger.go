package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sdpolicy"
	"sdpolicy/internal/sched"
	"sdpolicy/internal/workload"
)

// The traced run re-issues a fixed, seeded sample of the workload's
// operations at every layer boundary, from the benchmark's own code:
//
//	workload → sim+sched (the kernel) → campaign (Engine, cold and
//	memoised) → reducer (Engine.Experiment) → serve HTTP → journal →
//	serve coordinator plus workers
//
// Each layer's cost is the difference between a call into it and the
// call into the layer below on the same input (its self time), and its
// overhead ratio is their quotient.

// ledgerSample is one workload's sample.
type ledgerSample struct {
	// points drive the kernel, campaign and /v1/simulate layers, and
	// form the warm /v1/campaigns run of the journal and coordinator
	// layers. They are plain presets, so the scheduler can be called
	// directly.
	points []sdpolicy.Point
	// experiments are the reducer layer's Engine.Experiment calls.
	experiments []experimentCall
}

// Minimum measuring time per layer. The kernel layer runs its sample at
// least once, the cheaper layers at least minRepeats times.
const (
	kernelBudget = time.Second
	warmBudget   = 300 * time.Millisecond
	httpBudget   = 500 * time.Millisecond
	minRepeats   = 5
)

// fleet counters read from /metrics.
const (
	cJournalRecords = "journal_records_total"
	cShardsQueued   = "fleet_shards_queued_total"
	cShardsRequeued = "fleet_shards_requeued_total"
	cDedups         = "campaign_singleflight_dedup_total"
)

var ledgerCounters = []string{cJournalRecords, cShardsQueued, cShardsRequeued, cDedups}

// ledger holds the traced run's own deployment: one warm engine behind
// an unjournaled server, a journaled server, and a journaled
// coordinator over two workers, so that the layers differ by exactly
// one component each.
type ledger struct {
	s      ledgerSample
	engine *sdpolicy.Engine
	plain  *httpServer // unjournaled single server
	jour   *httpServer // journaled single server
	jdir   string
	coord  *fleet
	hc     *http.Client
	spans  *spanLog
	out    map[string]metric
	// refused counts failed or refused HTTP operations.
	refused int64
}

func newLedger(ctx context.Context, env *runEnv, s ledgerSample, spans *spanLog) (*ledger, error) {
	l := &ledger{s: s, engine: sdpolicy.NewEngine(env.callers, 1<<14), hc: newClient(env.callers),
		spans: spans, out: make(map[string]metric), jdir: filepath.Join(env.tmp, "ledger-journal")}
	// Warm the shared engine with every sampled point and experiment.
	if _, err := l.engine.Run(ctx, s.points); err != nil {
		return nil, err
	}
	for _, c := range s.experiments {
		if _, err := l.engine.Experiment(ctx, c.name, c.params); err != nil {
			return nil, err
		}
	}
	var err error
	if l.plain, err = startServer(l.engine, "", nil); err != nil {
		return nil, err
	}
	if l.jour, err = startServer(l.engine, l.jdir, nil); err != nil {
		l.close()
		return nil, err
	}
	workers := make([]*sdpolicy.Engine, fleetWorkers)
	for i := range workers {
		workers[i] = l.engine
	}
	if l.coord, err = startFleet(l.engine, workers, filepath.Join(env.tmp, "ledger-coord-journal")); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ledger) close() {
	for _, s := range []*httpServer{l.plain, l.jour} {
		if s != nil {
			s.close()
		}
	}
	if l.coord != nil {
		l.coord.close()
	}
	l.hc.CloseIdleConnections()
}

func (l *ledger) counters(ctx context.Context) (map[string]uint64, error) {
	return scrape(ctx, l.hc, l.coord.url, ledgerCounters...)
}

func (l *ledger) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// tracedRun builds the workload once, runs its closed loop untraced and
// traced for half the run's duration each, and measures the per-layer
// ledger on the workload's sample.
func tracedRun(ctx context.Context, env *runEnv, w bench) (report, error) {
	spans := newSpanLog()
	err := w.setup(ctx, env)
	defer w.close()
	if err != nil {
		return report{}, fmt.Errorf("setup: %w", err)
	}
	l, err := newLedger(ctx, env, w.sample(), spans)
	if err != nil {
		return report{}, fmt.Errorf("ledger setup: %w", err)
	}
	defer l.close()

	before, err := l.counters(ctx)
	if err != nil {
		return report{}, err
	}
	hits0, misses0 := w.usage()
	genHits0, gens0 := workload.Shared.Stats()
	// Untraced and traced quarters in the order ABBA, so that a steady
	// drift over the run (heap growth, machine load) cancels out of the
	// tracing overhead.
	var plain, traced loopStats
	for _, withSpans := range []bool{false, true, true, false} {
		var sp *spanLog
		if withSpans {
			sp = spans
		}
		st, err := closedLoop(ctx, env, w, env.dur/4, sp)
		if withSpans {
			traced.merge(st)
		} else {
			plain.merge(st)
		}
		if err != nil {
			return incorrect(traced), err
		}
	}
	hits1, misses1 := w.usage()
	genHits1, gens1 := workload.Shared.Stats()
	after, err := l.counters(ctx)
	if err != nil {
		return report{}, err
	}
	digest, err := w.verify(ctx)
	if err != nil {
		return incorrect(traced), err
	}
	fmt.Printf("digest %s\n", digest)

	l.set("trace.overhead_pct", 100*(plain.throughput()/traced.throughput()-1), "%")
	l.set("workload.cache_hit_ratio", ratio(genHits1-genHits0, genHits1-genHits0+gens1-gens0), "ratio")
	l.set("campaign.cache_hit_ratio", ratio(hits1-hits0, hits1-hits0+misses1-misses0), "ratio")
	l.set("campaign.singleflight_dedups", float64(after[cDedups]-before[cDedups]), "count")
	l.refused = plain.failed + traced.failed
	for _, st := range []loopStats{plain, traced} {
		if st.firstFail != nil {
			fmt.Printf("first failure: %v\n", st.firstFail)
		}
	}

	steps := []func(context.Context) error{
		l.workloadLayer, l.kernelAndCampaign, l.warmCampaign, l.reducerLayer,
		l.serveLayer, l.journalAndCoordinator,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return incorrect(traced), err
		}
	}
	final, err := l.counters(ctx)
	if err != nil {
		return report{}, err
	}
	l.set("coordinator.requeues", float64(final[cShardsRequeued]-before[cShardsRequeued]), "count")
	l.set("serve.refused", float64(l.refused), "count")

	if err := spans.write(env.spans); err != nil {
		return report{}, fmt.Errorf("span log: %w", err)
	}
	names := make([]string, 0, len(l.out))
	for n := range l.out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %g %s\n", n, l.out[n].Value, l.out[n].Unit)
	}
	fmt.Printf("spans %d written to %s\n", len(spans.spans), env.spans)
	return report{Correct: true, Attempted: plain.ops + traced.ops, Failed: plain.failed + traced.failed, Metrics: l.out}, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// repeat calls f until budget has passed and it has run at least n
// times, returning the runs and the mallocs they made.
func repeat(budget time.Duration, n int, f func() error) (runs int, elapsed time.Duration, mallocs uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for runs < n || time.Since(begin) < budget {
		if err := f(); err != nil {
			return runs, 0, 0, err
		}
		runs++
	}
	elapsed = time.Since(begin)
	runtime.ReadMemStats(&after)
	return runs, elapsed, after.Mallocs - before.Mallocs, nil
}

// bases lists the distinct generated workloads behind the points.
func bases(points []sdpolicy.Point) []workload.Key {
	seen := make(map[workload.Key]bool)
	var keys []workload.Key
	for _, p := range points {
		k := workload.Key{Name: p.Workload, Scale: p.Scale, Seed: p.Seed}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// workloadLayer times generating each sampled base workload with its
// generator and deriving a malleable-fraction variant of it.
func (l *ledger) workloadLayer(context.Context) error {
	keys := bases(l.s.points)
	runs, elapsed, _, err := repeat(warmBudget, 1, func() error {
		for _, k := range keys {
			begin := time.Now()
			if _, err := workload.ByName(k.Name, k.Scale, k.Seed); err != nil {
				return err
			}
			l.spans.add(0, "workload", "generate "+k.Name, begin, time.Since(begin))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("workload.generate_ms", ms(elapsed)/float64(runs), "ms")

	derivs := []workload.Derivation{workload.MalleableFraction(0.5)}
	runs, elapsed, _, err = repeat(warmBudget, 1, func() error {
		for _, k := range keys {
			spec, err := workload.Shared.Get(k.Name, k.Scale, k.Seed)
			if err != nil {
				return err
			}
			begin := time.Now()
			if _, err := workload.Derive(spec, derivs); err != nil {
				return err
			}
			l.spans.add(0, "workload", "derive "+k.Name, begin, time.Since(begin))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.set("workload.derive_ms", ms(elapsed)/float64(runs), "ms")
	return nil
}

// schedConfig maps the options the samples use onto the scheduler's
// configuration, as the campaign engine does. The kernel layer compares
// every direct run against the engine's result for the same point, so
// a wrong mapping fails the run instead of skewing the ledger.
func schedConfig(o sdpolicy.Options) (sched.Config, error) {
	cfg := sched.Defaults()
	switch o.Policy {
	case "", "static":
	case "sd":
		cfg.Policy = sched.SDPolicy
	default:
		return cfg, fmt.Errorf("kernel sample: policy %q not mapped", o.Policy)
	}
	if o.MaxSlowdown > 0 {
		cfg.MaxSlowdown = o.MaxSlowdown
	}
	switch o.DynamicCutoff {
	case "":
	case "avg":
		cfg.Cutoff = sched.CutoffDynAvg
	default:
		return cfg, fmt.Errorf("kernel sample: dynamic cutoff %q not mapped", o.DynamicCutoff)
	}
	if o.MaxMates > 0 {
		cfg.MaxMates = o.MaxMates
	}
	if o.Model != "" || o.SharingFactor != 0 || o.CandidateCap != 0 || o.BackfillDepth != 0 ||
		o.Backfill != "" || o.IncludeFreeNodes || o.DROMOverhead != 0 || o.OversubPenalty != 0 {
		return cfg, fmt.Errorf("kernel sample: options %+v not mapped", o)
	}
	return cfg, nil
}

// kernelAndCampaign runs every sampled point directly through
// sched.RunContext and then through a cold Engine.Run, interleaved, and
// reports the kernel's costs and exact counts and the campaign layer's
// overhead over it.
func (l *ledger) kernelAndCampaign(ctx context.Context) error {
	type counts struct{ events, passes, mates, mallStarts uint64 }
	var (
		first                *counts
		kernel, cold         time.Duration
		kernelMallocs        uint64
		totEvents, totPasses uint64
		points               int
	)
	_, _, _, err := repeat(kernelBudget, 1, func() error {
		var c counts
		for _, p := range l.s.points {
			cfg, err := schedConfig(p.Options)
			if err != nil {
				return err
			}
			spec, err := workload.Shared.Get(p.Workload, p.Scale, p.Seed)
			if err != nil {
				return err
			}
			// Alternate which of the two runs first, so that warm-up and
			// collection costs fall on both sides alike.
			parent, start := l.spans.newID(), time.Now()
			var (
				res           *sched.Result
				eres          []*sdpolicy.Result
				dk, dc        time.Duration
				before, after runtime.MemStats
			)
			runKernel := func() (err error) {
				runtime.GC()
				runtime.ReadMemStats(&before)
				begin := time.Now()
				res, err = sched.RunContext(ctx, *spec, cfg)
				dk = time.Since(begin)
				runtime.ReadMemStats(&after)
				l.spans.add(parent, "sched", "RunContext", begin, dk)
				return err
			}
			runCold := func() (err error) {
				runtime.GC()
				begin := time.Now()
				eres, err = sdpolicy.NewEngine(1, 0).Run(ctx, []sdpolicy.Point{p})
				dc = time.Since(begin)
				l.spans.add(parent, "campaign", "Engine.Run cold", begin, dc)
				return err
			}
			order := []func() error{runKernel, runCold}
			if points%2 == 1 {
				order[0], order[1] = runCold, runKernel
			}
			for _, run := range order {
				if err := run(); err != nil {
					return err
				}
			}
			l.spans.addID(parent, 0, "ledger", "point", start, time.Since(start))
			e := eres[0]
			if e.Mates != res.Mates || e.MalleableStarts != res.MalleableStarts ||
				e.Makespan != res.Report.Makespan() || e.AvgSlowdown != res.Report.AvgSlowdown() {
				return fmt.Errorf("kernel sample: point %s: direct sched.RunContext disagrees with Engine.Run", pointKey(p))
			}
			kernel += dk
			cold += dc
			kernelMallocs += after.Mallocs - before.Mallocs
			totEvents += res.Events
			totPasses += res.Passes
			points++
			c.events += res.Events
			c.passes += res.Passes
			c.mates += uint64(res.Mates)
			c.mallStarts += uint64(res.MalleableStarts)
		}
		if first == nil {
			first = &c
		} else if *first != c {
			return fmt.Errorf("kernel sample: counts changed between identical runs: %+v then %+v", *first, c)
		}
		return nil
	})
	if err != nil {
		return err
	}
	passes := float64(points) / float64(len(l.s.points))
	l.set("sched.run_ms", ms(kernel)/passes, "ms")
	l.set("sched.ns_per_event", float64(kernel.Nanoseconds())/float64(totEvents), "ns")
	l.set("sched.us_per_pass", float64(kernel.Nanoseconds())/1e3/float64(totPasses), "us")
	l.set("sched.allocs_per_event", float64(kernelMallocs)/float64(totEvents), "count")
	l.set("sched.events", float64(first.events), "count")
	l.set("sched.passes", float64(first.passes), "count")
	l.set("sched.mates", float64(first.mates), "count")
	l.set("sched.malleable_starts", float64(first.mallStarts), "count")
	l.set("campaign.cold_overhead_us", float64((cold-kernel).Nanoseconds())/1e3/float64(points), "us")
	l.set("campaign.overhead_ratio", float64(cold)/float64(kernel), "ratio")
	return nil
}

// warmCampaign replays the sampled points through the warm engine.
func (l *ledger) warmCampaign(ctx context.Context) error {
	runs, elapsed, mallocs, err := repeat(warmBudget, minRepeats, func() error {
		begin := time.Now()
		_, err := l.engine.Run(ctx, l.s.points)
		l.spans.add(0, "campaign", "Engine.Run warm", begin, time.Since(begin))
		return err
	})
	if err != nil {
		return err
	}
	n := float64(runs * len(l.s.points))
	l.set("campaign.warm_ns_per_point", float64(elapsed.Nanoseconds())/n, "ns")
	l.set("campaign.warm_allocs_per_point", float64(mallocs)/n, "count")
	return nil
}

// reducerLayer compares each sampled warm Engine.Experiment with a warm
// Engine.Run of that instance's points.
func (l *ledger) reducerLayer(ctx context.Context) error {
	var expNs, runNs, expAllocs, runAllocs float64
	for _, c := range l.s.experiments {
		inst, err := sdpolicy.Experiments().Get(c.name).Instance(c.params)
		if err != nil {
			return err
		}
		points := inst.Points()
		runs, elapsed, mallocs, err := repeat(warmBudget/2, minRepeats, func() error {
			begin := time.Now()
			_, err := l.engine.Experiment(ctx, c.name, c.params)
			l.spans.add(0, "reducer", "Engine.Experiment "+c.name, begin, time.Since(begin))
			return err
		})
		if err != nil {
			return err
		}
		expNs += float64(elapsed.Nanoseconds()) / float64(runs)
		expAllocs += float64(mallocs) / float64(runs)
		runs, elapsed, mallocs, err = repeat(warmBudget/2, minRepeats, func() error {
			begin := time.Now()
			_, err := l.engine.Run(ctx, points)
			l.spans.add(0, "campaign", "Engine.Run "+c.name, begin, time.Since(begin))
			return err
		})
		if err != nil {
			return err
		}
		runNs += float64(elapsed.Nanoseconds()) / float64(runs)
		runAllocs += float64(mallocs) / float64(runs)
	}
	n := float64(len(l.s.experiments))
	l.set("reducer.ns_per_op", (expNs-runNs)/n, "ns")
	l.set("reducer.allocs_per_op", (expAllocs-runAllocs)/n, "count")
	l.set("reducer.overhead_ratio", expNs/runNs, "ratio")
	return nil
}

// serveLayer compares warm /v1/simulate requests with warm
// Engine.SimulatePoint calls on the same points, and checks every
// response against the engine's result.
func (l *ledger) serveLayer(ctx context.Context) error {
	bodies := make([][]byte, len(l.s.points))
	want := make([][]byte, len(l.s.points))
	var direct []float64
	_, _, _, err := repeat(warmBudget, minRepeats, func() error {
		for i, p := range l.s.points {
			begin := time.Now()
			res, err := l.engine.SimulatePoint(ctx, p)
			d := time.Since(begin)
			if err != nil {
				return err
			}
			direct = append(direct, float64(d.Nanoseconds()))
			if want[i] == nil {
				if want[i], err = json.Marshal(res); err != nil {
					return err
				}
				if bodies[i], err = simulateBody(p); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var (
		raw, out  bytes.Buffer
		served    []float64
		respBytes int
		first     = true
	)
	_, _, _, err = repeat(httpBudget, minRepeats, func() error {
		for i := range l.s.points {
			begin := time.Now()
			n, err := simulate(ctx, l.hc, l.plain.url, bodies[i], &raw, &out)
			d := time.Since(begin)
			if refused(err) {
				l.refused++
				continue
			}
			if err != nil {
				return err
			}
			l.spans.add(0, "serve", "POST /v1/simulate", begin, d)
			if !bytes.Equal(out.Bytes(), want[i]) {
				return fmt.Errorf("/v1/simulate: point %s differs from Engine.SimulatePoint", pointKey(l.s.points[i]))
			}
			served = append(served, float64(d.Nanoseconds()))
			if first {
				respBytes += n
			}
		}
		first = false
		return nil
	})
	if err != nil {
		return err
	}
	ds, ss := median(direct), median(served)
	l.set("serve.simulate_overhead_us", (ss-ds)/1e3, "us")
	l.set("serve.overhead_ratio", ss/ds, "ratio")
	l.set("serve.response_bytes", float64(respBytes), "bytes")
	return nil
}

// journalAndCoordinator runs the sampled campaign, warm, on the
// unjournaled server, the journaled server and the coordinator in turn,
// and reports each one's cost over the previous.
func (l *ledger) journalAndCoordinator(ctx context.Context) error {
	body, err := campaignBody(l.s.points)
	if err != nil {
		return err
	}
	want := make([][]byte, len(l.s.points))
	res, err := l.engine.Run(ctx, l.s.points)
	if err != nil {
		return err
	}
	for i, r := range res {
		if want[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	targets := []struct {
		name string
		url  string
		lat  []float64
	}{{name: "plain", url: l.plain.url}, {name: "journaled", url: l.jour.url}, {name: "coordinator", url: l.coord.url}}
	var records, shards uint64
	var journalBytes int64
	runs := 0
	_, _, _, err = repeat(3*httpBudget, minRepeats, func() error {
		for ti := range targets {
			t := &targets[ti]
			id := fmt.Sprintf("ledger-%s-%06d", t.name, runs)
			var before map[string]uint64
			if runs == 0 {
				b, err := l.counters(ctx)
				if err != nil {
					return err
				}
				before = b
			}
			got := 0
			begin := time.Now()
			err := runCampaign(ctx, l.hc, t.url, id, body, func(i int, r []byte) error {
				if i < 0 || i >= len(want) || !bytes.Equal(r, want[i]) {
					return fmt.Errorf("/v1/campaigns on the %s server: result %d differs from Engine.Run", t.name, i)
				}
				got++
				return nil
			})
			d := time.Since(begin)
			if refused(err) {
				l.refused++
				continue
			}
			if err != nil {
				return err
			}
			if got != len(want) {
				return fmt.Errorf("/v1/campaigns on the %s server: %d of %d results", t.name, got, len(want))
			}
			l.spans.add(0, t.name, "POST+GET /v1/campaigns", begin, d)
			t.lat = append(t.lat, float64(d.Nanoseconds()))
			if runs > 0 {
				continue
			}
			after, err := l.counters(ctx)
			if err != nil {
				return err
			}
			switch t.name {
			case "journaled":
				records = after[cJournalRecords] - before[cJournalRecords]
				fi, err := os.Stat(journalFile(l.jdir, id))
				if err != nil {
					return err
				}
				journalBytes = fi.Size()
			case "coordinator":
				shards = after[cShardsQueued] - before[cShardsQueued]
			}
		}
		runs++
		return nil
	})
	if err != nil {
		return err
	}
	plain, jour, coord := median(targets[0].lat), median(targets[1].lat), median(targets[2].lat)
	l.set("journal.campaign_overhead_ms", (jour-plain)/1e6, "ms")
	l.set("journal.overhead_ratio", jour/plain, "ratio")
	l.set("journal.records_per_campaign", float64(records), "count")
	l.set("journal.bytes_per_campaign", float64(journalBytes), "bytes")
	l.set("coordinator.overhead_ratio", coord/jour, "ratio")
	l.set("coordinator.shards_per_campaign", float64(shards), "count")
	return nil
}

// journalFile is the journal of campaign id in dir: the one file whose
// name is the ID plus the journal's extension.
func journalFile(dir, id string) string {
	matches, _ := filepath.Glob(filepath.Join(dir, id+".*")) // the pattern is well-formed
	if len(matches) != 1 {
		return filepath.Join(dir, id)
	}
	return matches[0]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
