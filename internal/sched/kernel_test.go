package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdpolicy/internal/job"
	"sdpolicy/internal/model"
	"sdpolicy/internal/sim"
	"sdpolicy/internal/workload"
)

// runHooked simulates spec under cfg like RunContext, calling before(s)
// ahead of every scheduling pass, and returns the finished scheduler.
func runHooked(t *testing.T, spec workload.Spec, cfg Config, before func(s *Scheduler)) *Scheduler {
	t.Helper()
	eng := sim.NewEngine()
	s := NewScheduler(eng, cfg, spec.Cluster)
	for nd, feats := range spec.NodeFeatures {
		s.cl.SetNodeFeatures(nd, feats...)
	}
	s.passFn = func() {
		before(s)
		s.pass()
	}
	for i := range spec.Jobs {
		if err := s.Submit(&spec.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(s.results) != len(spec.Jobs) {
		t.Fatalf("%d of %d jobs completed", len(s.results), len(spec.Jobs))
	}
	return s
}

// refProfile is the per-node reference for buildProfile: every busy
// node releases at its latest resident's predicted end, and the sorted
// per-node releases make the profile.
func refProfile(s *Scheduler, now int64) *profile {
	nodes := s.cl.Config().Nodes
	rel := make([]int64, nodes)
	for _, r := range s.runList {
		end := r.predEnd(now)
		for _, nd := range r.nodes {
			rel[nd] = max(rel[nd], end)
		}
	}
	var rels []int64
	for _, t := range rel {
		if t > 0 {
			rels = append(rels, t)
		}
	}
	return newProfile(now, nodes, s.cl.FreeNodes(), rels)
}

// sameProfile reports whether two profiles match breakpoint for
// breakpoint.
func sameProfile(a, b *profile) bool {
	return a.availNow == b.availNow && slices.Equal(a.times, b.times) && slices.Equal(a.deltas, b.deltas)
}

// featureStressSpec is randomSpec with a random subset of nodes tagged
// "gpu" and a share of the jobs requiring it.
func featureStressSpec(rng *rand.Rand) workload.Spec {
	spec := randomSpec(rng)
	tagged := 1 + rng.Intn(spec.Cluster.Nodes)
	spec.NodeFeatures = map[int][]string{}
	for _, nd := range rng.Perm(spec.Cluster.Nodes)[:tagged] {
		spec.NodeFeatures[nd] = []string{"gpu"}
	}
	for i := range spec.Jobs {
		if j := &spec.Jobs[i]; j.ReqNodes <= tagged && rng.Intn(3) == 0 {
			j.Features = []string{"gpu"}
		}
	}
	return spec
}

// stressConfigs covers every path that shapes the running set: SD mates
// and guests under static and dynamic cut-offs, free-node mixing,
// oversubscription and the static baseline.
func stressConfigs() map[string]Config {
	cfgs := map[string]Config{"static": Defaults(), "sd": sdConfig()}
	for name, c := range map[string]CutoffKind{"dyn-avg": CutoffDynAvg, "dyn-median": CutoffDynMedian, "dyn-p70": CutoffDynP70} {
		cfg := sdConfig()
		cfg.Cutoff = c
		cfgs[name] = cfg
	}
	free := sdConfig()
	free.IncludeFreeNodes = true
	free.MaxMates = 3
	cfgs["free-nodes"] = free
	cfgs["oversub"] = oversubConfig(0.15)
	ideal := sdConfig()
	ideal.RuntimeModel = model.Ideal
	cfgs["sd-ideal"] = ideal
	return cfgs
}

// TestProfileMatchesPerNodeReference checks, at every pass of the
// stress workloads, that the per-job aggregate profile equals the
// per-node reference breakpoint for breakpoint, and that the release
// list tracks the running set.
func TestProfileMatchesPerNodeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked, shared := 0, 0
	for trial := 0; trial < 30; trial++ {
		spec := randomSpec(rng)
		if trial%2 == 1 {
			spec = featureStressSpec(rng)
		}
		for name, cfg := range stressConfigs() {
			runHooked(t, spec, cfg, func(s *Scheduler) {
				now := s.eng.Now()
				want := refProfile(s, now)
				got := s.buildProfile(now)
				if !sameProfile(got, want) {
					t.Fatalf("trial %d %s t=%d: per-job profile avail=%d %v %v, per-node avail=%d %v %v",
						trial, name, now, got.availNow, got.times, got.deltas,
						want.availNow, want.times, want.deltas)
				}
				if len(s.byRelease) != len(s.runList) {
					t.Fatalf("trial %d %s: %d jobs by release, %d running",
						trial, name, len(s.byRelease), len(s.runList))
				}
				for _, r := range s.byRelease {
					if s.runList[r.runIdx] != r {
						t.Fatalf("trial %d %s: job %d by release is not running", trial, name, r.j.ID)
					}
					if r.guest != nil {
						shared++
					}
				}
				if err := s.reg.CheckInvariants(); err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				checked++
			})
		}
	}
	if shared == 0 {
		t.Fatal("no pass saw a mate hosting a guest; the shared-node case went untested")
	}
	t.Logf("%d passes checked, %d mate entries seen", checked, shared)
}

// TestProfileMateReleasesAtGuestEnd covers a guest predicted to outlive
// its mate, which mate selection normally rules out: the shared nodes
// must release at the guest's end, as the per-node reference has it.
func TestProfileMateReleasesAtGuestEnd(t *testing.T) {
	spec := tiny(2, []job.Job{
		mj(1, 0, 1000, 1000, 2, job.Malleable),
		mj(2, 10, 100, 100, 2, job.Malleable),
	})
	eng := sim.NewEngine()
	s := NewScheduler(eng, sdConfig(), spec.Cluster)
	for i := range spec.Jobs {
		if err := s.Submit(&spec.Jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetHorizon(50)
	eng.Run()
	mate, guest := s.running[1], s.running[2]
	if mate == nil || guest == nil || mate.guest != guest {
		t.Fatal("job 2 is not hosted by job 1 at t=50")
	}
	now := eng.Now()
	guest.pred.SetRate(now, 0.01)
	guest.peAt = peInvalid
	want := refProfile(s, now)
	got := s.buildProfile(now)
	if !sameProfile(got, want) {
		t.Fatalf("per-job profile %v %v, per-node %v %v", got.times, got.deltas, want.times, want.deltas)
	}
	if end := guest.predEnd(now); !slices.Equal(got.times, []int64{end}) {
		t.Fatalf("shared nodes release at %v, want the guest's end %d", got.times, end)
	}
}

// refEligible is the brute-force reference of the mate checks: every
// condition canHost and eligibleMate split between them, with the
// full-core test read from the cluster instead of the allFull flag.
func refEligible(s *Scheduler, m, g *rjob, now, guestEnd int64) bool {
	if s.cfg.Policy == SDPolicy && m.j.Kind != job.Malleable {
		return false
	}
	if m.guest != nil || len(m.hosts) > 0 || s.mgr.OwnerKeepCores() < m.j.TasksPerNode {
		return false
	}
	if len(m.nodes) > g.j.ReqNodes || m.predEnd(now) < guestEnd {
		return false
	}
	for _, nd := range m.nodes {
		if s.cl.CoresOf(nd, m.j.ID) != s.cl.Config().CoresPerNode() ||
			!s.cl.NodeHasFeatures(nd, g.j.Features) {
			return false
		}
	}
	return true
}

// TestWalkExitStartsNothing vetoes every exit of the backfill walk, at
// pass entry and mid-walk, so the hooked run walks every window in
// full. At each exit a brute-force check confirms that no remaining
// window job requests at most the free nodes and, unless the policy is
// static, that no running job could host any of them; the full walks
// must then decide exactly what the exiting unhooked run decides.
func TestWalkExitStartsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []workload.Spec{workload.WL1(0.05, 1), workload.WL5(0.05, 2)}
	for i := 0; i < 10; i++ {
		specs = append(specs, randomSpec(rng), featureStressSpec(rng))
	}
	maxsd := sdConfig()
	maxsd.MaxSlowdown = 10
	dyn := sdConfig()
	dyn.Cutoff = CutoffDynAvg
	easy := Defaults()
	easy.ReservationDepth = 1
	shallow := Defaults()
	shallow.BackfillDepth = 2
	sdShallow := maxsd
	sdShallow.BackfillDepth = 2
	cfgs := map[string]Config{
		"static": Defaults(), "maxsd10": maxsd, "dyn-avg": dyn, "oversub": oversubConfig(0.15),
		"easy": easy, "depth2": shallow, "sd-depth2": sdShallow,
	}
	// Per config: exits fired at pass entry and mid-walk. A vetoed exit
	// fires again at every later position of the same walk.
	exits := map[string][2]int{}
	for si, spec := range specs {
		for name, cfg := range cfgs {
			calls := uint64(0)
			s := runHooked(t, spec, cfg, func(s *Scheduler) {
				calls++
				s.exitHook = func(avail int, rest []*rjob) bool {
					now := s.eng.Now()
					w := min(len(s.queue), cfg.BackfillDepth)
					entry := len(rest) == w
					if len(rest) == 0 || rest[len(rest)-1] != s.queue[w-1] {
						t.Fatalf("spec %d %s t=%d: exit rest is not the window tail", si, name, now)
					}
					if entry && avail != s.cl.FreeNodes() || !entry && avail != s.prof.availNow {
						t.Fatalf("spec %d %s t=%d: exit sees %d free nodes", si, name, now, avail)
					}
					for _, g := range rest {
						if g.j.ReqNodes <= avail {
							t.Fatalf("spec %d %s t=%d: job %d requests %d of %d free nodes",
								si, name, now, g.j.ID, g.j.ReqNodes, avail)
						}
						if cfg.Policy == StaticBackfill {
							continue
						}
						for _, m := range s.runList {
							if refEligible(s, m, g, now, now+1) {
								t.Fatalf("spec %d %s t=%d: job %d could host job %d",
									si, name, now, m.j.ID, g.j.ID)
							}
						}
					}
					e := exits[name]
					if entry {
						e[0]++
					} else {
						e[1]++
					}
					exits[name] = e
					return false
				}
			})
			res := runOrFail(t, spec, cfg)
			if res.Passes != calls || s.passes != calls {
				t.Fatalf("spec %d %s: Result.Passes %d, hooked run %d, passes requested %d",
					si, name, res.Passes, s.passes, calls)
			}
			if !reflect.DeepEqual(res.Report.Results, s.results) {
				t.Fatalf("spec %d %s: results differ from the unhooked run", si, name)
			}
		}
	}
	for name, e := range exits {
		if e[0] == 0 || e[1] == 0 {
			t.Errorf("%s: %d exits at pass entry, %d mid-walk; want both", name, e[0], e[1])
		}
	}
	t.Logf("exits (entry, mid-walk): %v", exits)
}

// TestHostListMatchesBruteForce checks, at every malleable trial of the
// stress workloads, that the mates the search can pick from the host
// list are exactly the running jobs the brute-force reference accepts.
func TestHostListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials, found := 0, 0
	for i := 0; i < 20; i++ {
		spec := randomSpec(rng)
		if i%2 == 1 {
			spec = featureStressSpec(rng)
		}
		for name, cfg := range stressConfigs() {
			if cfg.Policy == StaticBackfill {
				continue
			}
			runHooked(t, spec, cfg, func(s *Scheduler) {
				s.trialHook = func(g *rjob, guestEnd int64, hosts []*rjob) {
					now := s.eng.Now()
					var got, want []*rjob
					for _, m := range hosts {
						if s.eligibleMate(m, g, now, guestEnd) {
							got = append(got, m)
						}
					}
					for _, m := range s.runList {
						if refEligible(s, m, g, now, guestEnd) {
							want = append(want, m)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("spec %d %s t=%d guest %d: host list yields %d mates, brute force %d",
							i, name, now, g.j.ID, len(got), len(want))
					}
					trials++
					found += len(got)
				}
			})
		}
	}
	if trials == 0 || found == 0 {
		t.Fatalf("%d trials, %d eligible mates: the property went untested", trials, found)
	}
	t.Logf("%d malleable trials, %d eligible mates checked", trials, found)
}

// TestKernelAllocsPerEvent gates kernel allocations per simulated event
// on a small preset under static backfill and MAXSD 10: jobs, their
// completion events and their node lists allocate, placement and the
// profile build do not.
func TestKernelAllocsPerEvent(t *testing.T) {
	spec := workload.WL1(0.05, 1)
	sd := sdConfig()
	sd.MaxSlowdown = 10
	sd.RuntimeModel = model.Ideal
	for name, cfg := range map[string]Config{"static": Defaults(), "maxsd10": sd} {
		var events uint64
		allocs := testing.AllocsPerRun(3, func() {
			res, err := Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		})
		perEvent := allocs / float64(events)
		t.Logf("%s: %.0f allocs over %d events, %.2f per event", name, allocs, events, perEvent)
		if perEvent > 1.5 {
			t.Errorf("%s: %.2f allocs per event, ceiling 1.5", name, perEvent)
		}
	}
}

// TestKernelWorkCeiling pins the scheduling passes' work on a small
// preset at the measured counts + 10%: queued jobs the backfill walks
// examine, and mate checks the mate searches make. A walk that no
// longer stops once nothing can start, or a mate search that scans
// every running job again, fails it.
func TestKernelWorkCeiling(t *testing.T) {
	spec := workload.WL1(0.05, 1)
	sd := sdConfig()
	sd.MaxSlowdown = 10
	sd.RuntimeModel = model.Ideal
	for _, tc := range []struct {
		name                 string
		cfg                  Config
		examined, mateChecks uint64
	}{
		{"static", Defaults(), 2844, 0},
		{"maxsd10", sd, 2294, 2384},
	} {
		res := runOrFail(t, spec, tc.cfg)
		t.Logf("%s: %d examined, %d mate checks", tc.name, res.Examined, res.MateChecks)
		if ceiling := tc.examined * 11 / 10; res.Examined > ceiling {
			t.Errorf("%s: %d queued jobs examined, ceiling %d", tc.name, res.Examined, ceiling)
		}
		if ceiling := tc.mateChecks * 11 / 10; res.MateChecks > ceiling {
			t.Errorf("%s: %d mate checks, ceiling %d", tc.name, res.MateChecks, ceiling)
		}
	}
}
