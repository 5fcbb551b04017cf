package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpolicy"
	"sdpolicy/internal/telemetry"
)

// scrape fetches url and returns the body, asserting a 200.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestMetricsEndpoint runs a campaign through the API, then checks the
// /metrics exposition carries the expected content type and series from
// every instrumented layer: sim kernel, campaign engine, LRU, HTTP.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaign",
		`{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type %q, want %q", ct, telemetry.ContentType)
	}
	body, _ := io.ReadAll(mr.Body)
	out := string(body)
	for _, series := range []string{
		"sim_events_processed_total",
		"sim_runs_total",
		"sim_run_seconds_total",
		"campaign_points_completed_total",
		"campaign_cache_misses_total",
		"campaign_point_seconds_bucket",
		"lru_misses_total",
		`http_requests_total{route="/v1/campaign",code="200"}`,
		`http_request_seconds_bucket{route="/v1/campaign",le="+Inf"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
	// Spot-check the format: every non-comment line is `name{...} value`
	// with a numeric value field.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 1 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// TestMetricsConcurrentScrape scrapes /metrics repeatedly while a
// campaign is in flight; with -race this proves scrapes never tear the
// atomics or race the handlers.
func TestMetricsConcurrentScrape(t *testing.T) {
	srv := testServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		body := `{"points":[
			{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}},
			{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
			{"workload":"wl5","scale":0.15,"seed":2,"options":{"policy":"sd"}}
		]}`
		resp, err := http.Post(srv.URL+"/v1/campaign", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					resp, err := http.Get(srv.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	<-done
	wg.Wait()
}

// traceLine decodes any /v1/campaign NDJSON line including the ?trace=1
// summary frame.
type traceLine struct {
	Index      *int        `json:"index"`
	Done       bool        `json:"done"`
	Error      string      `json:"error"`
	Trace      bool        `json:"trace"`
	CampaignID string      `json:"campaign_id"`
	DurationMS float64     `json:"duration_ms"`
	Points     int         `json:"points"`
	Shards     []ShardSpan `json:"shards"`
	Peers      []PeerTrace `json:"peers"`
}

// postCampaignWithID posts body to url with the given X-Campaign-ID
// header (omitted when empty) and ?trace=1, returning the response.
func postCampaignWithID(t *testing.T, url, body, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/campaign?trace=1", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Campaign-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeTraceLines(t *testing.T, body io.Reader) []traceLine {
	t.Helper()
	var lines []traceLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCampaignIDPropagation drives a traced campaign through a
// coordinator whose workers record the X-Campaign-ID they receive: the
// client's ID must be echoed on the response, observed verbatim by
// every worker that ran a shard, and stamped into the terminal trace
// frame along with per-shard spans naming those workers.
func TestCampaignIDPropagation(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	urls := make([]string, 2)
	for i := range urls {
		inner := New(sdpolicy.NewEngine(2, 64), 4).Handler()
		w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/campaign" {
				mu.Lock()
				seen[r.Header.Get("X-Campaign-ID")]++
				mu.Unlock()
			}
			inner.ServeHTTP(rw, r)
		}))
		t.Cleanup(w.Close)
		urls[i] = w.URL
	}
	coord := startCoordinator(t, urls)

	const id = "ci-trace-42"
	resp := postCampaignWithID(t, coord.URL, coordCampaignBody, id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Campaign-ID"); got != id {
		t.Errorf("response X-Campaign-ID %q, want %q", got, id)
	}
	lines := decodeTraceLines(t, resp.Body)
	if len(lines) < 2 {
		t.Fatalf("stream too short: %+v", lines)
	}
	last, trace := lines[len(lines)-1], lines[len(lines)-2]
	if !last.Done {
		t.Fatalf("terminal line %+v, want done", last)
	}
	if !trace.Trace || trace.CampaignID != id {
		t.Fatalf("trace frame %+v, want trace with campaign_id %q", trace, id)
	}
	if len(trace.Shards) == 0 || len(trace.Peers) == 0 {
		t.Fatalf("trace frame has no spans: %+v", trace)
	}
	workerSet := map[string]bool{urls[0]: true, urls[1]: true}
	for _, span := range trace.Shards {
		if !workerSet[span.Peer] {
			t.Errorf("span names unknown peer %q", span.Peer)
		}
		if span.EndMS < span.StartMS {
			t.Errorf("span ends before it starts: %+v", span)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[id] == 0 {
		t.Errorf("workers observed campaign IDs %v, want only %q", seen, id)
	}
}

// TestCampaignIDGenerated: without a client-supplied ID the server
// generates one; an unusable ID (bad characters) is replaced, not
// echoed back.
func TestCampaignIDGenerated(t *testing.T) {
	srv := testServer(t)
	body := `{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}]}`

	resp := postCampaignWithID(t, srv.URL, body, "")
	gen := resp.Header.Get("X-Campaign-ID")
	if len(gen) != 16 {
		t.Errorf("generated ID %q, want 16 hex chars", gen)
	}
	io.Copy(io.Discard, resp.Body)

	resp = postCampaignWithID(t, srv.URL, body, "bad id with spaces")
	if got := resp.Header.Get("X-Campaign-ID"); got == "" || strings.ContainsAny(got, " \n") {
		t.Errorf("unusable client ID echoed as %q, want a regenerated one", got)
	}
	io.Copy(io.Discard, resp.Body)
}

// TestTraceFrameLocal: a ?trace=1 campaign on a non-coordinator server
// still gets a trace frame, with the whole batch attributed to the
// pseudo-peer "local".
func TestTraceFrameLocal(t *testing.T) {
	srv := testServer(t)
	resp := postCampaignWithID(t, srv.URL,
		`{"points":[{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"static"}}]}`, "local-trace-1")
	lines := decodeTraceLines(t, resp.Body)
	if len(lines) < 3 {
		t.Fatalf("stream %+v, want result + trace + done", lines)
	}
	trace := lines[len(lines)-2]
	if !trace.Trace || trace.CampaignID != "local-trace-1" || trace.Points != 1 {
		t.Fatalf("trace frame %+v", trace)
	}
	if len(trace.Shards) != 1 || trace.Shards[0].Peer != "local" {
		t.Fatalf("local trace spans %+v, want one span on peer local", trace.Shards)
	}
}

// TestDebugHandlerSmoke: the -debug-addr handler serves the pprof index,
// a pprof profile endpoint, and the /metrics exposition.
func TestDebugHandlerSmoke(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	t.Cleanup(srv.Close)
	if out := scrape(t, srv.URL+"/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("pprof index lacks profile links:\n%.200s", out)
	}
	if out := scrape(t, srv.URL+"/debug/pprof/cmdline"); out == "" {
		t.Error("pprof cmdline empty")
	}
	if out := scrape(t, srv.URL+"/metrics"); !strings.Contains(out, "# TYPE") {
		t.Errorf("debug /metrics not an exposition:\n%.200s", out)
	}
}

// TestHealthBuildInfo: /healthz carries the binary's build identity.
func TestHealthBuildInfo(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version == "" || h.Go == "" {
		t.Errorf("healthz build info %+v, want version and go set", h)
	}
	if !strings.HasPrefix(h.Go, "go") {
		t.Errorf("healthz go %q, want a go version string", h.Go)
	}
}

// TestCanonicalCampaignID pins the accept/replace rules.
func TestCanonicalCampaignID(t *testing.T) {
	for _, ok := range []string{"a", "ci-trace-42", "A.b_C-9", strings.Repeat("x", 64)} {
		if got := canonicalCampaignID(ok); got != ok {
			t.Errorf("canonicalCampaignID(%q) = %q, want unchanged", ok, got)
		}
	}
	for _, bad := range []string{"", "has space", "new\nline", `quo"te`, strings.Repeat("x", 65), "ünïcode"} {
		got := canonicalCampaignID(bad)
		if got == bad || len(got) != 16 {
			t.Errorf("canonicalCampaignID(%q) = %q, want a fresh 16-char ID", bad, got)
		}
	}
}

// TestTraceRecorderNil: a nil recorder must be inert — untraced
// campaigns call record on it for every shard.
func TestTraceRecorderNil(t *testing.T) {
	var tr *traceRecorder
	tr.record("w", 3, 0, time.Now(), nil)
	f := tr.frame("id", 3)
	if !f.Trace || f.CampaignID != "id" || len(f.Shards) != 0 {
		t.Errorf("nil recorder frame %+v", f)
	}
}
