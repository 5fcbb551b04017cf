package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sdpolicy"
)

// coordCampaignBody is a fixed-seed campaign exercising everything the
// fan-out must preserve: duplicate points (the shared static baseline),
// a legacy malleable_fraction spelling, a derivation chain, and a
// distinct seed.
const coordCampaignBody = `{"points":[
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":1,"malleable_fraction":0.5,"options":{"policy":"sd"}},
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd"},
	 "derivations":[{"op":"tag_nodes","fraction":0.5,"feature":"bigmem"},
	                {"op":"require_feature","fraction":0.3,"feature":"bigmem"}]},
	{"workload":"wl5","scale":0.15,"seed":2,"options":{"policy":"oversubscribe"}}
]}`

// coordCampaignPoints decodes coordCampaignBody into its points.
func coordCampaignPoints(tb testing.TB) []sdpolicy.Point {
	tb.Helper()
	var req CampaignRequest
	if err := json.Unmarshal([]byte(coordCampaignBody), &req); err != nil {
		tb.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		tb.Fatal(err)
	}
	return points
}

// coordReferenceResults runs the same campaign on a local engine.
func coordReferenceResults(t *testing.T) []*sdpolicy.Result {
	t.Helper()
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), coordCampaignPoints(t))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// startWorkers launches n worker sdserve instances, each with its own
// engine (separate-process stand-ins), returning their base URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(New(sdpolicy.NewEngine(2, 64), 4).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// startCoordinator launches a coordinator sdserve over the workers.
// The probe interval is an hour — effectively disabling the health
// prober — so these tests exercise the PR 4 fan-out semantics (a dead
// worker stays dead for the campaign); the elastic behaviours get
// their own coverage with short intervals in elastic_test.go.
func startCoordinator(t *testing.T, workerURLs []string) *httptest.Server {
	t.Helper()
	srv, _ := startCoordinatorCfg(t, CoordinatorConfig{
		Workers:       workerURLs,
		ProbeInterval: time.Hour,
	})
	return srv
}

// startCoordinatorCfg launches a coordinator with full config control,
// returning the underlying Server too. BeginShutdown is registered as
// cleanup so the background prober never outlives the test.
func startCoordinatorCfg(t *testing.T, cfg CoordinatorConfig) (*httptest.Server, *Server) {
	t.Helper()
	s := New(sdpolicy.NewEngine(1, 64), 4)
	if err := s.EnableCoordinator(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.BeginShutdown)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s
}

// runCoordinatorCampaign posts the fixed campaign and returns the
// per-position results, asserting stream shape: each index exactly
// once, then one done terminal.
func runCoordinatorCampaign(t *testing.T, url string) []*sdpolicy.Result {
	t.Helper()
	resp := postJSON(t, url+"/v1/campaign", coordCampaignBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if !last.Done || last.Error != "" {
		t.Fatalf("terminal line %+v, want done", last)
	}
	const points = 6
	if last.Points != points {
		t.Fatalf("terminal counts %d points, want %d", last.Points, points)
	}
	results := make([]*sdpolicy.Result, points)
	for _, l := range lines[:len(lines)-1] {
		if l.Index == nil || l.Result == nil {
			t.Fatalf("malformed result line %+v", l)
		}
		if results[*l.Index] != nil {
			t.Fatalf("index %d streamed twice", *l.Index)
		}
		results[*l.Index] = l.Result
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("index %d never streamed", i)
		}
	}
	return results
}

func assertResultsMatch(t *testing.T, got, want []*sdpolicy.Result) {
	t.Helper()
	for i := range want {
		gotJSON, _ := json.Marshal(got[i])
		wantJSON, _ := json.Marshal(want[i])
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("point %d: coordinator %s, local %s", i, gotJSON, wantJSON)
		}
	}
}

// TestCoordinatorMatchesLocalRun: a campaign fanned out across three
// workers re-merges into exactly the single-process results.
func TestCoordinatorMatchesLocalRun(t *testing.T) {
	coord := startCoordinator(t, startWorkers(t, 3))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// TestCoordinatorSurvivesDeadWorker: one worker is down before the
// campaign starts; its shard requeues to the survivors and the merged
// output is unchanged.
func TestCoordinatorSurvivesDeadWorker(t *testing.T) {
	urls := startWorkers(t, 2)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from the first dial
	coord := startCoordinator(t, append(urls, dead.URL))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
}

// cutAfterFirstResult wraps a worker's ResponseWriter and kills the
// connection right after the first streamed result line — the
// mid-campaign worker crash.
type cutAfterFirstResult struct {
	http.ResponseWriter
	lines int
}

func (c *cutAfterFirstResult) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	for _, b := range p[:n] {
		if b == '\n' {
			c.lines++
		}
	}
	if c.lines >= 1 {
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (c *cutAfterFirstResult) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestCoordinatorSurvivesMidStreamWorkerCrash: a worker that dies after
// delivering part of its shard is retired, the already-delivered
// results are not duplicated, and the unresolved remainder completes on
// the survivors — output still identical to a local run.
func TestCoordinatorSurvivesMidStreamWorkerCrash(t *testing.T) {
	urls := startWorkers(t, 2)
	flakyInner := New(sdpolicy.NewEngine(2, 64), 4).Handler()
	var flakyHits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flakyHits.Add(1)
		flakyInner.ServeHTTP(&cutAfterFirstResult{ResponseWriter: w}, r)
	}))
	t.Cleanup(flaky.Close)
	coord := startCoordinator(t, append(urls, flaky.URL))
	assertResultsMatch(t, runCoordinatorCampaign(t, coord.URL), coordReferenceResults(t))
	if flakyHits.Load() != 1 {
		t.Fatalf("crashed worker was contacted %d times, want exactly 1 (marked dead after the crash)", flakyHits.Load())
	}
}

// TestCoordinatorAllWorkersDead: with no survivors the stream ends in a
// terminal error event, not a hang.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	coord := startCoordinator(t, []string{dead.URL})
	resp := postJSON(t, coord.URL+"/v1/campaign", coordCampaignBody)
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != 1 || lines[0].Error == "" {
		t.Fatalf("lines %+v, want a single terminal error", lines)
	}
}

// TestCoordinatorPropagatesDeterministicErrors: a failure every worker
// would reproduce (unknown workload) aborts the campaign instead of
// burning through the fleet with retries.
func TestCoordinatorPropagatesDeterministicErrors(t *testing.T) {
	urls := startWorkers(t, 2)
	coord := startCoordinator(t, urls)
	resp := postJSON(t, coord.URL+"/v1/campaign",
		`{"points":[{"workload":"wl-nope","options":{}}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (error should arrive in-band)", resp.StatusCode)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != 1 || lines[0].Error == "" {
		t.Fatalf("lines %+v, want a single terminal error", lines)
	}
}

// TestCoordinatorHealthListsPeers: /healthz advertises the fleet with
// per-peer state.
func TestCoordinatorHealthListsPeers(t *testing.T) {
	urls := startWorkers(t, 2)
	coord := startCoordinator(t, urls)
	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("healthz peers %v, want the 2 workers", h.Peers)
	}
	for _, p := range h.Peers {
		if p.Source != "static" || p.State != "alive" {
			t.Fatalf("static configured peer reported %+v, want alive static", p)
		}
	}
}

// TestEnableCoordinatorRejectsBadURLs: misconfiguration fails at
// startup, not on the first campaign. An empty static list is NOT a
// misconfiguration any more — the fleet can be populated entirely by
// registration — but a campaign against the still-empty fleet fails
// in-band.
func TestEnableCoordinatorRejectsBadURLs(t *testing.T) {
	for _, urls := range [][]string{
		{"not a url"},
		{"ftp://example.com"},
		{"http://"},
	} {
		s := New(sdpolicy.NewEngine(1, 0), 1)
		if err := s.EnableCoordinator(CoordinatorConfig{Workers: urls, ProbeInterval: time.Hour}); err == nil {
			t.Fatalf("EnableCoordinator(%v) accepted", urls)
		}
	}
	coord, _ := startCoordinatorCfg(t, CoordinatorConfig{ProbeInterval: time.Hour})
	resp := postJSON(t, coord.URL+"/v1/campaign", coordCampaignBody)
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != 1 || lines[0].Error == "" {
		t.Fatalf("campaign on an empty fleet: lines %+v, want a single terminal error", lines)
	}
}
