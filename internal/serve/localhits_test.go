package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"sdpolicy"
)

// workerTap records every /v1/campaign request its workers receive and
// the points each one carried, in wire form.
type workerTap struct {
	mu       sync.Mutex
	requests int
	points   []string
}

func (tap *workerTap) snapshot() (requests int, points []string) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	points = slices.Clone(tap.points)
	slices.Sort(points)
	return tap.requests, points
}

// tapWorkers starts n workers whose campaign requests are recorded on
// one tap. A dead worker records the request and then aborts it, as a
// crashed process would.
func tapWorkers(t *testing.T, n int, dead bool) ([]string, *workerTap) {
	t.Helper()
	tap := &workerTap{}
	urls := make([]string, n)
	for i := range urls {
		inner := New(sdpolicy.NewEngine(2, 64), 4).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/campaign" {
				var body bytes.Buffer
				if _, err := body.ReadFrom(r.Body); err != nil {
					t.Errorf("worker reading body: %v", err)
				}
				var req struct {
					Points []json.RawMessage `json:"points"`
				}
				if err := json.Unmarshal(body.Bytes(), &req); err != nil {
					t.Errorf("worker decoding body: %v", err)
				}
				tap.mu.Lock()
				tap.requests++
				for _, p := range req.Points {
					tap.points = append(tap.points, string(p))
				}
				tap.mu.Unlock()
				if dead {
					panic(http.ErrAbortHandler)
				}
				r.Body = io.NopCloser(&body)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls, tap
}

// campaignBodyOf encodes points as a /v1/campaign request body.
func campaignBodyOf(t *testing.T, points []sdpolicy.Point) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Points []sdpolicy.Point `json:"points"`
	}{points})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wireForms returns the sorted wire encodings of points, as a worker
// receives them.
func wireForms(t *testing.T, points ...sdpolicy.Point) []string {
	t.Helper()
	out := make([]string, len(points))
	for i, p := range points {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}

// rawStream is one /v1/campaign NDJSON stream split by frame kind:
// the raw bytes of every result line and report line by position, and
// the decoded terminal line.
type rawStream struct {
	results, reports map[int]string
	last             campaignLine
}

func streamCampaign(t *testing.T, url, body string) rawStream {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	s := rawStream{results: map[int]string{}, reports: map[int]string{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var l campaignLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		dst, key := s.results, l.Index
		if l.ReportFor != nil {
			dst, key = s.reports, l.ReportFor
		}
		if key == nil {
			s.last = l
			continue
		}
		if _, dup := dst[*key]; dup {
			t.Fatalf("position %d streamed twice: %s", *key, sc.Text())
		}
		dst[*key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCoordinatorFansOutOnlyMisses: on a coordinator whose engine holds
// part of a campaign, the workers receive exactly the missed points,
// the stream is byte-identical to a single server's, and every distinct
// hit counts once in the coordinator's CacheStats.
func TestCoordinatorFansOutOnlyMisses(t *testing.T) {
	urls, tap := tapWorkers(t, 2, false)
	coord, s := startCoordinatorCfg(t, CoordinatorConfig{Workers: urls, ProbeInterval: time.Hour})
	points := coordCampaignPoints(t)
	// Positions 0 and 2 are the same static baseline and 1 is MAXSD 10:
	// three hit positions over two distinct points.
	if _, err := s.engine.Run(context.Background(), points[:2]); err != nil {
		t.Fatal(err)
	}
	hits, _ := s.engine.CacheStats()
	local := mPointsLocal.Value()

	got := streamCampaign(t, coord.URL+"/v1/campaign", coordCampaignBody)
	want := streamCampaign(t, testServer(t).URL+"/v1/campaign", coordCampaignBody)
	if !got.last.Done || got.last.Points != len(points) {
		t.Fatalf("terminal line %+v, want done with %d points", got.last, len(points))
	}
	for pos := range points {
		if got.results[pos] != want.results[pos] {
			t.Fatalf("position %d:\ncoordinator %s\nlocal       %s", pos, got.results[pos], want.results[pos])
		}
	}
	if _, sent := tap.snapshot(); !slices.Equal(sent, wireForms(t, points[3:]...)) {
		t.Fatalf("workers received %v, want only the misses %v", sent, wireForms(t, points[3:]...))
	}
	if h, _ := s.engine.CacheStats(); h-hits != 2 {
		t.Fatalf("coordinator cache hits rose by %d, want 2 (one per distinct hit)", h-hits)
	}
	if d := mPointsLocal.Value() - local; d != 3 {
		t.Fatalf("fleet_points_local_total rose by %d, want 3 (one per hit position)", d)
	}
}

// TestCoordinatorAllHitNeedsNoWorker: a campaign the coordinator holds
// whole succeeds with every worker dead and no worker contacted, and
// its trace frame accounts for every point with one local span. One
// miss still fails the campaign as TestCoordinatorAllWorkersDead does.
func TestCoordinatorAllHitNeedsNoWorker(t *testing.T) {
	urls, tap := tapWorkers(t, 2, true)
	coord, s := startCoordinatorCfg(t, CoordinatorConfig{Workers: urls, ProbeInterval: time.Hour})
	points := coordCampaignPoints(t)
	if _, err := s.engine.Run(context.Background(), points); err != nil {
		t.Fatal(err)
	}
	queued := mShardsQueued.Value()
	resp := postCampaignWithID(t, coord.URL, coordCampaignBody, "all-hit")
	lines := decodeTraceLines(t, resp.Body)
	if n := len(lines); n != len(points)+2 || !lines[n-1].Done {
		t.Fatalf("stream %+v, want %d results, trace, done", lines, len(points))
	}
	trace := lines[len(lines)-2]
	if len(trace.Shards) != 1 || trace.Shards[0].Peer != "local" || trace.Shards[0].Points != len(points) {
		t.Fatalf("trace spans %+v, want one local span over %d points", trace.Shards, len(points))
	}
	if requests, _ := tap.snapshot(); requests != 0 {
		t.Fatalf("all-hit campaign sent %d worker requests, want 0", requests)
	}
	if mShardsQueued.Value() != queued {
		t.Fatal("all-hit campaign queued shards")
	}

	miss := sdpolicy.NewPoint("wl5", 0.15, 3, sdpolicy.Options{Policy: "static"})
	resp = postJSON(t, coord.URL+"/v1/campaign", campaignBodyOf(t, []sdpolicy.Point{miss}))
	if lines := decodeLines(t, bufio.NewScanner(resp.Body)); len(lines) != 1 || lines[0].Error == "" {
		t.Fatalf("one-miss campaign: lines %+v, want a single terminal error", lines)
	}
	// Mixed: the hits stream, then the miss fails the campaign.
	mixed := streamCampaign(t, coord.URL+"/v1/campaign", campaignBodyOf(t, append(points[:2:2], miss)))
	if mixed.last.Error == "" || mixed.last.Done || len(mixed.results) != 2 {
		t.Fatalf("mixed campaign: %d results, terminal %+v; want the 2 hits, then an error", len(mixed.results), mixed.last)
	}
}

// TestCoordinatorLocalHitReports: under ?reports=1 a hit relays a
// report frame byte-equal to a worker's, while a hit primed with a
// report-less result (Engine.Prime of a wire result) is fanned out so
// its report can come from a worker. Without reports that same hit is
// served locally.
func TestCoordinatorLocalHitReports(t *testing.T) {
	points := coordCampaignPoints(t)
	body := campaignBodyOf(t, points[:2])
	worker := testServer(t)
	want := streamCampaign(t, worker.URL+"/v1/campaign?reports=1", body)

	urls, tap := tapWorkers(t, 2, false)
	coord, s := startCoordinatorCfg(t, CoordinatorConfig{Workers: urls, ProbeInterval: time.Hour})
	if _, err := s.engine.Run(context.Background(), points[:1]); err != nil {
		t.Fatal(err)
	}
	// Point 1 arrives report-less, as a decoded result line would.
	var bare sdpolicy.Result
	if err := json.Unmarshal([]byte(want.results[1]), &struct {
		Result *sdpolicy.Result `json:"result"`
	}{&bare}); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Prime(points[1], &bare); err != nil {
		t.Fatal(err)
	}

	got := streamCampaign(t, coord.URL+"/v1/campaign?reports=1", body)
	if !got.last.Done {
		t.Fatalf("terminal line %+v, want done", got.last)
	}
	for pos := range points[:2] {
		if got.results[pos] != want.results[pos] || got.reports[pos] != want.reports[pos] {
			t.Fatalf("position %d differs from the worker's stream", pos)
		}
	}
	if _, sent := tap.snapshot(); !slices.Equal(sent, wireForms(t, points[1])) {
		t.Fatalf("workers received %v, want only the report-less hit", sent)
	}

	requests, _ := tap.snapshot()
	got = streamCampaign(t, coord.URL+"/v1/campaign", body)
	if !got.last.Done || got.results[1] != want.results[1] {
		t.Fatalf("report-less hit without reports: terminal %+v, result %s", got.last, got.results[1])
	}
	if after, _ := tap.snapshot(); after != requests {
		t.Fatal("a report-less hit was fanned out although no reports were negotiated")
	}
}

// TestExperimentsWarmCoordinator: on a coordinator whose engine already
// ran each experiment, the summary bytes are the local ones and no
// shard is queued.
func TestExperimentsWarmCoordinator(t *testing.T) {
	s := New(sdpolicy.NewEngine(4, 256), 4)
	if err := s.EnableCoordinator(CoordinatorConfig{Workers: startWorkers(t, 2), ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.BeginShutdown)
	coord := httptest.NewServer(s.Handler())
	t.Cleanup(coord.Close)
	reference := sdpolicy.NewEngine(4, 256)
	for _, tc := range experimentGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenSummaryBytes(t, reference, tc)
			if _, err := s.engine.Experiment(context.Background(), tc.name, tc.params); err != nil {
				t.Fatal(err)
			}
			queued := mShardsQueued.Value()
			got, err := RunRemoteExperiment(context.Background(), nil, []string{coord.URL},
				tc.name, tc.params, nil)
			if err != nil {
				t.Fatalf("remote %s: %v", tc.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary differs:\ncoordinator %s\nlocal       %s", got, want)
			}
			if d := mShardsQueued.Value() - queued; d != 0 {
				t.Fatalf("warm experiment queued %d shards, want 0", d)
			}
		})
	}
}
