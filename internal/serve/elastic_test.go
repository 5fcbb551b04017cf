package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpolicy"
)

// Integration coverage for the elastic-fleet behaviours: health-probed
// rotation, dynamic registration (including mid-campaign joiners
// stealing queued shards), transient-status requeues, heartbeat-lease
// lifecycle, and coordinator-side cache warming over the negotiated
// per-job report frames. The PR 4 static-fleet semantics keep their
// own tests in coordinator_test.go (probing effectively disabled
// there); here probe intervals are tens of milliseconds.

const shortProbe = 20 * time.Millisecond

// doorWorker is a worker whose reachability can be toggled: closed, it
// aborts every connection (campaign posts and health probes alike) the
// way a killed process does; open, it serves a real worker API. The
// inner engine's stats reveal whether it simulated anything.
type doorWorker struct {
	srv    *httptest.Server
	engine *sdpolicy.Engine

	mu   sync.Mutex
	open bool
}

func newDoorWorker(t *testing.T, open bool) *doorWorker {
	t.Helper()
	d := &doorWorker{engine: sdpolicy.NewEngine(2, 64), open: open}
	inner := New(d.engine, 8).Handler()
	d.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		open := d.open
		d.mu.Unlock()
		if !open {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(d.srv.Close)
	return d
}

func (d *doorWorker) setOpen(open bool) {
	d.mu.Lock()
	d.open = open
	d.mu.Unlock()
}

func (d *doorWorker) misses() uint64 {
	_, misses := d.engine.CacheStats()
	return misses
}

// fetchHealth decodes a /healthz reply.
func fetchHealth(t *testing.T, base string) Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// waitPeerState polls the coordinator's /healthz until the peer at url
// reports the wanted state (or the predicate times out).
func waitPeerState(t *testing.T, coordURL, peerURL, want string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		for _, p := range fetchHealth(t, coordURL).Peers {
			if p.URL == peerURL && p.State == want {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("peer %s never reached state %q; healthz: %+v",
				peerURL, want, fetchHealth(t, coordURL).Peers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitPeerCount polls until the coordinator reports exactly n peers.
func waitPeerCount(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		if peers := fetchHealth(t, coordURL).Peers; len(peers) == n {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("peer count never reached %d; healthz: %+v",
				n, fetchHealth(t, coordURL).Peers)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// registerWorker registers url with the coordinator over HTTP.
func registerWorker(t *testing.T, coordURL, url string, ttlSeconds float64) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: url, TTLSeconds: ttlSeconds})
	resp := postJSON(t, coordURL+"/v1/workers/register", string(body))
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, msg)
	}
}

// TestRegistrationEndpointLifecycle: a worker registers into an
// initially empty fleet, serves campaigns, and deregisters away.
func TestRegistrationEndpointLifecycle(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})

	registerWorker(t, coord.URL, worker, 0)
	h := fetchHealth(t, coord.URL)
	if len(h.Peers) != 1 {
		t.Fatalf("peers after register: %+v", h.Peers)
	}
	p := h.Peers[0]
	if p.Source != "registered" || p.State != "alive" || p.LeaseExpiresInSeconds <= 0 {
		t.Fatalf("registered peer: %+v", p)
	}
	// The registered-only fleet runs a full campaign.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))

	body, _ := json.Marshal(RegisterRequest{URL: worker})
	resp := postJSON(t, coord.URL+"/v1/workers/deregister", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 0 {
		t.Fatalf("peers after deregister: %+v", h.Peers)
	}
}

// TestRegistrationRejections: bad worker URLs are a 400, and a plain
// worker (no fleet) refuses the registration API outright.
func TestRegistrationRejections(t *testing.T) {
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: time.Hour})
	for name, body := range map[string]string{
		"missing url": `{}`,
		"bad url":     `{"url":"not a url"}`,
		"bad scheme":  `{"url":"ftp://w:1"}`,
	} {
		if resp := postJSON(t, coord.URL+"/v1/workers/register", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	plain := testServer(t)
	resp := postJSON(t, plain.URL+"/v1/workers/register", `{"url":"http://w:1"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("register on a non-coordinator: status %d, want 409", resp.StatusCode)
	}
}

// TestDeadWorkerProbedBackIntoRotation is the elasticity acceptance
// test at the package level: a worker that dies mid-fleet is marked
// dead, health-probed with backoff, returned to rotation when it comes
// back, and then actually simulates again — all visible in /healthz.
func TestDeadWorkerProbedBackIntoRotation(t *testing.T) {
	healthy := startWorkers(t, 1)[0]
	door := newDoorWorker(t, false) // down from the start
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{healthy, door.srv.URL},
		ProbeInterval: shortProbe,
	})

	// Campaign 1: the dead worker faults, its shards requeue, output is
	// still byte-identical.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	waitPeerState(t, coord.URL, door.srv.URL, "dead")
	for _, p := range fetchHealth(t, coord.URL).Peers {
		if p.URL == door.srv.URL && (p.ConsecutiveFailures == 0 || p.LastError == "") {
			t.Fatalf("dead peer carries no fault record: %+v", p)
		}
	}

	// The worker restarts: the prober notices and returns it to
	// rotation without any registration or coordinator restart.
	door.setOpen(true)
	waitPeerState(t, coord.URL, door.srv.URL, "alive")

	// Campaign 2: the revived worker steals shards and simulates.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if door.misses() == 0 {
		t.Fatal("revived worker never simulated after returning to rotation")
	}
}

// slowCampaignBody builds a campaign of n distinct multi-hundred-ms
// points so mid-campaign fleet changes land while work remains queued.
func slowCampaignBody(n int) string {
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"workload":"wl1","scale":0.25,"seed":%d,"options":{"policy":"sd","max_slowdown":10}}`, i+1)
	}
	return `{"points":[` + strings.Join(specs, ",") + `]}`
}

// TestJoinerAfterPlanningStealsQueuedShards: a worker that registers
// after the campaign was planned (fine-grained shards, one static
// worker) picks up queued shards mid-flight — the work-stealing half
// of elasticity. Also covers register-while-campaign-in-flight.
func TestJoinerAfterPlanningStealsQueuedShards(t *testing.T) {
	slowEngine := sdpolicy.NewEngine(1, 0) // sequential: one point at a time
	slow := httptest.NewServer(New(slowEngine, 8).Handler())
	t.Cleanup(slow.Close)
	joiner := newDoorWorker(t, true)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{slow.URL},
		ProbeInterval: shortProbe,
	})

	const points = 10
	resp := postJSON(t, coord.URL+"/v1/campaign", slowCampaignBody(points))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	// Campaign is in flight with shards still queued (10 sequential
	// slow points, first one just landed): the joiner announces itself
	// and must start stealing immediately.
	registerWorker(t, coord.URL, joiner.srv.URL, 0)
	lines := decodeLines(t, sc)
	last := lines[len(lines)-1]
	if !last.Done || last.Points != points {
		t.Fatalf("terminal line %+v, want done with %d points", last, points)
	}
	if joiner.misses() == 0 {
		t.Fatal("mid-campaign joiner never stole a shard")
	}
}

// TestTransientStatusRequeuesWithoutRetiring: 429/503 from a worker —
// up, merely refusing work — requeues the shard and keeps probing; the
// worker rejoins as soon as it accepts again, rather than being
// written off as dead for good.
func TestTransientStatusRequeuesWithoutRetiring(t *testing.T) {
	healthy := startWorkers(t, 1)[0]
	// busy serves /healthz but replies 503 to campaigns until relieved.
	busyEngine := sdpolicy.NewEngine(2, 64)
	busyInner := New(busyEngine, 8).Handler()
	var busyMu sync.Mutex
	busy := true
	busySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyMu.Lock()
		b := busy
		busyMu.Unlock()
		if b && r.URL.Path == "/v1/campaign" {
			http.Error(w, "no free slots", http.StatusServiceUnavailable)
			return
		}
		busyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(busySrv.Close)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{healthy, busySrv.URL},
		ProbeInterval: shortProbe,
	})

	// The 503s must not fail the campaign (they are not deterministic
	// errors) and must not lose points: everything lands via the
	// healthy worker.
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	// The busy worker's healthz kept answering, so the prober returns
	// it to rotation even while it still refuses campaigns.
	waitPeerState(t, coord.URL, busySrv.URL, "alive")
	// Relieved, it serves the next campaign's shards.
	busyMu.Lock()
	busy = false
	busyMu.Unlock()
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if _, misses := busyEngine.CacheStats(); misses == 0 {
		t.Fatal("previously busy worker never simulated after relief")
	}
}

// TestSingleWorkerTransient503Recovers pins the small-fleet half of
// the transient-status promise: when the ONLY worker answers 503, the
// campaign must not abort with "all workers failed" — it waits out a
// bounded revival window while the prober (healthz still answers)
// returns the worker to rotation, and completes once the refusal
// clears.
func TestSingleWorkerTransient503Recovers(t *testing.T) {
	busyEngine := sdpolicy.NewEngine(2, 64)
	busyInner := New(busyEngine, 8).Handler()
	var busyMu sync.Mutex
	busy := true
	busySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		busyMu.Lock()
		b := busy
		busyMu.Unlock()
		if b && r.URL.Path == "/v1/campaign" {
			http.Error(w, "no free slots", http.StatusServiceUnavailable)
			return
		}
		busyInner.ServeHTTP(w, r)
	}))
	t.Cleanup(busySrv.Close)
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       []string{busySrv.URL},
		ProbeInterval: shortProbe,
	})
	go func() {
		time.Sleep(300 * time.Millisecond)
		busyMu.Lock()
		busy = false
		busyMu.Unlock()
	}()
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// TestJoinLoopRegistersHeartbeatsAndDeregisters drives the worker-side
// client: JoinLoop announces the worker, keeps the lease renewed well
// past its TTL, and deregisters on context cancellation.
func TestJoinLoopRegistersHeartbeatsAndDeregisters(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		JoinLoop(ctx, nil, []string{coord.URL}, worker, time.Second, t.Logf)
	}()
	waitPeerCount(t, coord.URL, 1)
	// Outlive the initial 1s lease: heartbeats must keep renewing it.
	time.Sleep(1500 * time.Millisecond)
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 1 || h.Peers[0].State != "alive" {
		t.Fatalf("peer lapsed despite heartbeats: %+v", h.Peers)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("JoinLoop never returned after cancellation")
	}
	if h := fetchHealth(t, coord.URL); len(h.Peers) != 0 {
		t.Fatalf("peer still present after JoinLoop deregistration: %+v", h.Peers)
	}
}

// TestHeartbeatLeaseExpiryDropsWorker: a worker that registers once
// and then goes silent is dropped when its lease runs out — the fleet
// shrinks by itself, no operator in the loop.
func TestHeartbeatLeaseExpiryDropsWorker(t *testing.T) {
	worker := startWorkers(t, 1)[0]
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: shortProbe})
	registerWorker(t, coord.URL, worker, 1) // minimum lease, never renewed
	waitPeerCount(t, coord.URL, 1)
	waitPeerCount(t, coord.URL, 0)
}

// TestWorkerReportFrames: ?reports=1 negotiates one report frame per
// result on a plain worker stream, and its payload restores a Result
// whose per-job report works (Daily has rows); without the param the
// stream is unchanged.
func TestWorkerReportFrames(t *testing.T) {
	srv := testServer(t)
	body := `{"points":[
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}
	]}`
	resp := postJSON(t, srv.URL+"/v1/campaign?reports=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	var results, reports int
	for _, l := range lines {
		switch {
		case l.Index != nil:
			results++
		case l.ReportFor != nil:
			reports++
			if len(l.Report) == 0 {
				t.Fatalf("empty report frame: %+v", l)
			}
			var res sdpolicy.Result
			if err := res.SetReportJSON(l.Report); err != nil {
				t.Fatalf("report frame does not decode: %v", err)
			}
			if len(res.Daily()) == 0 {
				t.Fatal("restored report has no daily rows")
			}
		}
	}
	if results != 2 || reports != 2 {
		t.Fatalf("%d results, %d report frames; want 2 and 2", results, reports)
	}
	if last := lines[len(lines)-1]; !last.Done || last.Points != 2 {
		t.Fatalf("terminal line %+v", last)
	}

	resp2 := postJSON(t, srv.URL+"/v1/campaign", body)
	for _, l := range decodeLines(t, bufio.NewScanner(resp2.Body)) {
		if l.ReportFor != nil {
			t.Fatalf("unsolicited report frame: %+v", l)
		}
	}
}

// TestCoordinatorWarmCacheSpill is the cache-warming acceptance test:
// a WarmCache coordinator primes its local engine with every result
// proxied from the workers — reports included, via the negotiated wire
// frame — so its SaveCache spill warms a fresh local engine to zero
// misses with byte-identical results.
func TestCoordinatorWarmCacheSpill(t *testing.T) {
	coord, s := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       startWorkers(t, 2),
		ProbeInterval: time.Hour,
		WarmCache:     true,
	})
	want := coordReferenceResults(t)
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), want)
	// The primed results serve the next campaign locally: no shard
	// leaves the coordinator.
	queued := mShardsQueued.Value()
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), want)
	if d := mShardsQueued.Value() - queued; d != 0 {
		t.Fatalf("replaying a warmed campaign queued %d shards, want 0", d)
	}

	spill := filepath.Join(t.TempDir(), sdpolicy.CacheFileName)
	stats, err := s.engine.SaveCache(spill)
	if err != nil {
		t.Fatal(err)
	}
	// 6 campaign points, one canonical duplicate (the repeated static
	// baseline): 5 distinct entries.
	if stats.Entries != 5 {
		t.Fatalf("spilled %d entries, want 5", stats.Entries)
	}

	local := sdpolicy.NewEngine(2, 64)
	if err := local.LoadCache(spill); err != nil {
		t.Fatal(err)
	}
	points := coordCampaignPoints(t)
	got, err := local.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := local.CacheStats(); misses != 0 {
		t.Fatalf("%d misses replaying a warmed campaign, want 0", misses)
	}
	assertResultsMatch(t, got, want)
	// The proxied reports survived the round trip: per-day analysis
	// works on a result that was never simulated in this process.
	if len(got[1].Daily()) == 0 {
		t.Fatal("warmed result has no per-job report")
	}
}

// TestRemoteCampaignWarmsLocalCache drives the sdexp -server
// -cache-dir path through a coordinator: a durable /v1/campaigns
// resource with report negotiation, Engine.PrimeProxied per report
// frame, then a local replay with zero misses — proving the frames
// relay through the coordinator, not just off a single worker.
func TestRemoteCampaignWarmsLocalCache(t *testing.T) {
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       startWorkers(t, 2),
		ProbeInterval: time.Hour,
	})
	points := coordCampaignPoints(t)
	local := sdpolicy.NewEngine(2, 64)
	got := make(map[int]*sdpolicy.Result, len(points))
	reports := 0
	err := RunDurableCampaign(context.Background(), nil, []string{coord.URL}, points, true,
		func(index int, res *sdpolicy.Result, report json.RawMessage) error {
			if res != nil {
				got[index] = res
				return nil
			}
			prev := got[index]
			if prev == nil {
				t.Fatalf("report frame for undelivered index %d", index)
			}
			reports++
			return local.PrimeProxied(points[index], prev, report)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) || reports != len(points) {
		t.Fatalf("%d results and %d report frames, want %d of each", len(got), reports, len(points))
	}
	res, err := local.Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := local.CacheStats(); misses != 0 {
		t.Fatalf("%d misses after remote warming, want 0", misses)
	}
	assertResultsMatch(t, res, coordReferenceResults(t))
}

// BenchmarkCoordinatorFanout is the CI fan-out smoke: a three-worker
// fleet re-merging the fixed campaign. The coordinator's own cache
// stays cold, so every point fans out; after the first iteration every
// worker serves from cache, so steady-state iterations measure the
// coordination overhead (planning, queueing, streaming, re-merge), not
// simulation.
func BenchmarkCoordinatorFanout(b *testing.B) {
	benchCoordinator(b, false)
}

// BenchmarkCoordinatorWarm is the same campaign against a coordinator
// whose own engine already holds every point: it serves the whole
// campaign from one cache probe, so iterations measure the local-hit
// path (decode, probe, stream) with no worker hop.
func BenchmarkCoordinatorWarm(b *testing.B) {
	benchCoordinator(b, true)
}

func benchCoordinator(b *testing.B, warm bool) {
	workers := make([]string, 3)
	for i := range workers {
		srv := httptest.NewServer(New(sdpolicy.NewEngine(2, 64), 8).Handler())
		b.Cleanup(srv.Close)
		workers[i] = srv.URL
	}
	s := New(sdpolicy.NewEngine(1, 64), 8)
	if err := s.EnableCoordinator(CoordinatorConfig{Workers: workers, ProbeInterval: time.Hour}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.BeginShutdown)
	coord := httptest.NewServer(s.Handler())
	b.Cleanup(coord.Close)
	post := func() {
		resp, err := http.Post(coord.URL+"/v1/campaign", "application/json",
			strings.NewReader(coordCampaignBody))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	if warm {
		if _, err := s.engine.Run(context.Background(), coordCampaignPoints(b)); err != nil {
			b.Fatal(err)
		}
		// One untimed campaign opens the client connection, so that
		// allocs/op is the steady state even at CI's -benchtime 2x.
		post()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
