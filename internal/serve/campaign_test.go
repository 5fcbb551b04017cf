package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdpolicy"
	"sdpolicy/internal/reducer"
)

// campaignLine is one NDJSON line of a /v1/campaign stream: a result
// line carries Index/Point/Result, a negotiated report line carries
// ReportFor/Report, the single terminal line carries Done or Shutdown
// or Error.
type campaignLine struct {
	Index     *int             `json:"index"`
	Point     *sdpolicy.Point  `json:"point"`
	Result    *sdpolicy.Result `json:"result"`
	ReportFor *int             `json:"report_for"`
	Report    json.RawMessage  `json:"report"`
	Done      bool             `json:"done"`
	Points    int              `json:"points"`
	Shutdown  bool             `json:"shutdown"`
	Error     string           `json:"error"`
}

func decodeLines(t *testing.T, r *bufio.Scanner) []campaignLine {
	t.Helper()
	var lines []campaignLine
	for r.Scan() {
		var l campaignLine
		if err := json.Unmarshal(r.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", r.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestCampaignEndpointNDJSON(t *testing.T) {
	srv := testServer(t)
	body := `{"points":[
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
		{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
		{"workload":"wl1","scale":0.1,"seed":2,"malleable_fraction":0.5,"options":{"policy":"sd"}}
	]}`
	resp := postJSON(t, srv.URL+"/v1/campaign", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 3 results + 1 terminal", len(lines))
	}
	seen := map[int]bool{}
	for _, l := range lines[:3] {
		if l.Index == nil || l.Result == nil || l.Point == nil {
			t.Fatalf("malformed result line: %+v", l)
		}
		if seen[*l.Index] {
			t.Fatalf("index %d streamed twice", *l.Index)
		}
		seen[*l.Index] = true
		if l.Result.Jobs == 0 || l.Result.Makespan == 0 {
			t.Fatalf("implausible result for index %d: %+v", *l.Index, l.Result)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("indices covered: %v", seen)
	}
	last := lines[3]
	if !last.Done || last.Points != 3 || last.Index != nil {
		t.Fatalf("terminal line: %+v", last)
	}
}

func TestCampaignEndpointSSE(t *testing.T) {
	srv := testServer(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/campaign", strings.NewReader(
		`{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	events := strings.Split(strings.TrimSpace(buf.String()), "\n\n")
	if len(events) != 2 {
		t.Fatalf("%d SSE events, want result + done:\n%s", len(events), buf.String())
	}
	if !strings.HasPrefix(events[0], "event: result\ndata: ") {
		t.Fatalf("first event:\n%s", events[0])
	}
	if !strings.HasPrefix(events[1], "event: done\ndata: ") {
		t.Fatalf("terminal event:\n%s", events[1])
	}
	var res sdpolicy.PointResult
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.SplitN(events[0], "\ndata: ", 2)[1], "data: ")), &res); err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Result.MalleableStarts == 0 {
		t.Fatalf("implausible SSE result: %+v", res.Result)
	}
}

func TestCampaignStreamsErrorAsTerminalEvent(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaign",
		`{"points":[{"workload":"wl-nope","options":{}}]}`)
	// The stream starts before the point fails, so the HTTP status is
	// 200 and the error arrives in-band.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != 1 || lines[0].Error == "" || lines[0].Done {
		t.Fatalf("terminal error line missing: %+v", lines)
	}
}

func TestCampaignBadRequests(t *testing.T) {
	srv := testServer(t)
	for name, body := range map[string]string{
		"no points":     `{"points":[]}`,
		"no workload":   `{"points":[{"options":{}}]}`,
		"bad fraction":  `{"points":[{"workload":"wl1","malleable_fraction":2,"options":{}}]}`,
		"bad format":    `{"points":[{"workload":"wl1","options":{}}],"format":"xml"}`,
		"unknown field": `{"points":[{"workload":"wl1","options":{}}],"bogus":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/campaign", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestCampaignClientDisconnectCancelsInFlight is the acceptance test
// for prompt mid-simulation cancellation over HTTP: a client that
// reads the first streamed result and disconnects must abort the
// campaign — including the point simulating at that moment — and free
// the request's slot in a small fraction of the campaign's remaining
// runtime.
func TestCampaignClientDisconnectCancelsInFlight(t *testing.T) {
	const points = 12
	engine := sdpolicy.NewEngine(1, 0) // sequential: ~points × point-runtime total
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	specs := make([]string, points)
	for i := range specs {
		// Distinct seeds defeat the in-flight coalescing and the cache:
		// every point is a fresh multi-hundred-millisecond simulation.
		specs[i] = fmt.Sprintf(`{"workload":"wl1","scale":0.25,"seed":%d,"options":{"policy":"sd","max_slowdown":10}}`, i+1)
	}
	body := `{"points":[` + strings.Join(specs, ",") + `]}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/campaign", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Streaming, not batching: the first result arrives while most of
	// the campaign still hasn't simulated.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	var first campaignLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Index == nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if s.campaigns.Load() != 1 || len(s.slots) != 1 {
		t.Fatalf("mid-stream state: campaigns=%d slots=%d", s.campaigns.Load(), len(s.slots))
	}

	cancel() // client disconnects mid-campaign, mid-simulation
	start := time.Now()
	deadline := time.After(10 * time.Second)
	for s.campaigns.Load() != 0 || len(s.slots) != 0 {
		select {
		case <-deadline:
			t.Fatalf("slot not released %v after disconnect: campaigns=%d slots=%d",
				time.Since(start), s.campaigns.Load(), len(s.slots))
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The campaign must have aborted well short of completion: with one
	// worker, at most the finished first point plus the point in flight
	// (and a scheduling-race straggler) may have simulated.
	if _, misses := engine.CacheStats(); misses >= points/2 {
		t.Fatalf("%d of %d points simulated despite disconnect after the first result", misses, points)
	}
}

// TestBeginShutdownEndsStreamWithTerminalEvent: an open campaign
// stream must be completed with an explicit shutdown event — not a cut
// connection — when the server begins shutdown.
func TestBeginShutdownEndsStreamWithTerminalEvent(t *testing.T) {
	engine := sdpolicy.NewEngine(1, 0)
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	specs := make([]string, 8)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"workload":"wl1","scale":0.25,"seed":%d,"options":{"policy":"sd"}}`, i+100)
	}
	resp := postJSON(t, srv.URL+"/v1/campaign", `{"points":[`+strings.Join(specs, ",")+`]}`)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first result: %v", sc.Err())
	}
	s.BeginShutdown()
	lines := decodeLines(t, sc) // reads to EOF: the response completes
	if len(lines) == 0 {
		t.Fatal("stream ended without a terminal event")
	}
	last := lines[len(lines)-1]
	if !last.Shutdown || last.Error == "" {
		t.Fatalf("terminal line %+v, want shutdown event", last)
	}
}

// TestBeginShutdownRejectsQueuedRequests: a request still waiting for
// a slot when shutdown begins has produced no output yet, so it gets a
// plain 503 instead of blocking Shutdown for the grace period.
func TestBeginShutdownRejectsQueuedRequests(t *testing.T) {
	s := New(sdpolicy.NewEngine(1, 0), 1)
	s.slots <- struct{}{} // the only slot is taken
	s.BeginShutdown()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"workload":"wl1","scale":0.1}`))
	s.handleSimulate(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued request during shutdown: status %d, want 503", rec.Code)
	}
}

func TestHealthReportsInFlightCampaigns(t *testing.T) {
	engine := sdpolicy.NewEngine(1, 0)
	s := New(engine, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Enough distinct points that the campaign is reliably observable
	// in flight: a single small sim can finish between two health polls.
	var points []string
	for seed := 1; seed <= 32; seed++ {
		points = append(points,
			fmt.Sprintf(`{"workload":"wl1","scale":1.0,"seed":%d,"options":{"policy":"sd"}}`, seed))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/campaign",
		strings.NewReader(`{"points":[`+strings.Join(points, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	health := func() Health {
		hr, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var h Health
		if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// The campaign holds its slot until its single point finishes or
	// the client goes away; observe it in /healthz while it runs.
	deadline := time.After(10 * time.Second)
	for {
		h := health()
		if h.CampaignsInFlight == 1 && h.InFlight == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("campaign never visible in /healthz: %+v", h)
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	deadline = time.After(10 * time.Second)
	for {
		h := health()
		if h.CampaignsInFlight == 0 && h.InFlight == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("in-flight counts stuck after disconnect: %+v", h)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestCampaignDerivationsMatchGoAPIAblation is the HTTP half of the
// derivation refactor's acceptance criterion: a /v1/campaign request
// whose points carry derivation chains must reproduce the Go-API
// ablation experiment's rows exactly — the labelled sweeps need nothing
// beyond plain points on the wire.
func TestCampaignDerivationsMatchGoAPIAblation(t *testing.T) {
	const workload, scale = "wl5", 0.2
	const seed = 31
	fracs := []float64{0, 0.5}

	goEngine := sdpolicy.NewEngine(2, 32)
	want, err := sdpolicy.RunExperiment[[]sdpolicy.AblationRow](context.Background(), goEngine,
		"ablate_node_features", reducer.Params{"workload": workload, "scale": scale, "seed": seed, "fractions": fracs})
	if err != nil {
		t.Fatal(err)
	}

	// The same campaign as plain wire points: the static baseline plus
	// one derived point per variant, exactly as the
	// ablate_node_features experiment shapes them.
	points := []sdpolicy.PointSpec{
		{Workload: workload, Scale: scale, Seed: seed, Options: sdpolicy.Options{Policy: "static"}},
	}
	for _, f := range fracs {
		points = append(points, sdpolicy.PointSpec{
			Workload: workload, Scale: scale, Seed: seed,
			Options: sdpolicy.Options{Policy: "sd"},
			Derivations: []sdpolicy.Derivation{
				sdpolicy.TagNodesDerivation("bigmem", 0.5),
				sdpolicy.RequireFeatureDerivation("bigmem", f),
			},
		})
	}
	body, err := json.Marshal(CampaignRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaign", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := decodeLines(t, bufio.NewScanner(resp.Body))
	if len(lines) != len(points)+1 {
		t.Fatalf("%d lines, want %d results + terminal", len(lines), len(points))
	}
	results := make([]*sdpolicy.Result, len(points))
	for _, l := range lines[:len(points)] {
		if l.Index == nil || l.Result == nil {
			t.Fatalf("malformed line %+v", l)
		}
		results[*l.Index] = l.Result
	}
	base := results[0]
	for i, f := range fracs {
		res := results[i+1]
		row := want[i]
		if row.Value != fmt.Sprintf("%.2f", f) {
			t.Fatalf("row %d labels %q, want %.2f", i, row.Value, f)
		}
		if got := res.AvgSlowdown / base.AvgSlowdown; got != row.AvgSlowdown {
			t.Fatalf("frac %v: slowdown %v over HTTP, %v via Go API", f, got, row.AvgSlowdown)
		}
		if got := res.AvgResponse / base.AvgResponse; got != row.AvgResponse {
			t.Fatalf("frac %v: response %v over HTTP, %v via Go API", f, got, row.AvgResponse)
		}
		if got := float64(res.Makespan) / float64(base.Makespan); got != row.Makespan {
			t.Fatalf("frac %v: makespan %v over HTTP, %v via Go API", f, got, row.Makespan)
		}
	}

	// Echoed points must round-trip: resubmitting the streamed point
	// reproduces its result from cache.
	echoed, err := json.Marshal(CampaignRequest{Points: []sdpolicy.PointSpec{points[1]}})
	if err != nil {
		t.Fatal(err)
	}
	resp2 := postJSON(t, srv.URL+"/v1/campaign", string(echoed))
	lines2 := decodeLines(t, bufio.NewScanner(resp2.Body))
	if len(lines2) != 2 || lines2[0].Result == nil {
		t.Fatalf("resubmit lines: %+v", lines2)
	}
	if lines2[0].Result.AvgSlowdown != results[1].AvgSlowdown {
		t.Fatal("resubmitted derived point diverged")
	}

	// Invalid derivations are a 400, not a stream.
	bad := postJSON(t, srv.URL+"/v1/campaign",
		`{"points":[{"workload":"wl5","derivations":[{"op":"warp","fraction":0.5}],"options":{}}]}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid derivation: status %d", bad.StatusCode)
	}
}
