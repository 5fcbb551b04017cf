package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
)

// campaignPoints are four distinct canonical points (different seeds),
// so cache-hit accounting maps one miss to one simulated point.
const campaignPointsBody = `{"points":[
	{"workload":"wl5","scale":0.15,"seed":1,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":2,"options":{"policy":"sd","max_slowdown":10}},
	{"workload":"wl5","scale":0.15,"seed":3,"options":{"policy":"static"}},
	{"workload":"wl5","scale":0.15,"seed":4,"options":{"policy":"oversubscribe"}}
]}`

const campaignPointCount = 4

func campaignTestPoints(t *testing.T) []sdpolicy.Point {
	t.Helper()
	var req CreateCampaignRequest
	if err := json.Unmarshal([]byte(campaignPointsBody), &req); err != nil {
		t.Fatal(err)
	}
	points, err := sdpolicy.PointsFromSpecs(req.Points)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// createCampaign POSTs a campaign resource and returns its ID.
func createCampaign(t *testing.T, base, id, body string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/campaigns", strings.NewReader(body))
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var cr CreateCampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || resp.Header.Get("Location") != "/v1/campaigns/"+cr.ID ||
		resp.Header.Get("X-Campaign-ID") != cr.ID {
		t.Fatalf("create reply inconsistent: id %q, Location %q", cr.ID, resp.Header.Get("Location"))
	}
	return cr.ID
}

// attachLines attaches from the cursor and returns the raw NDJSON
// lines; the stream must end (terminal frame) for this to return.
func attachLines(t *testing.T, base, id string, from uint64) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s?from=%d", base, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func campaignStatus(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitCampaignState(t *testing.T, base, id, state string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := campaignStatus(t, base, id)
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q (want %q): %+v", id, st.State, state, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// resultsByIndex decodes every result frame of an NDJSON attach into a
// per-position Result JSON map, asserting no index streams twice.
func resultsByIndex(t *testing.T, lines []string) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for _, l := range lines {
		var f streamFrame
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("bad frame %q: %v", l, err)
		}
		if f.Index == nil {
			continue
		}
		if _, dup := out[*f.Index]; dup {
			t.Fatalf("index %d streamed twice", *f.Index)
		}
		b, _ := json.Marshal(f.Result)
		out[*f.Index] = string(b)
	}
	return out
}

func TestCampaignResourceLifecycle(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "life", campaignPointsBody)
	if id != "life" {
		t.Fatalf("client-chosen ID not honoured: %q", id)
	}
	st := waitCampaignState(t, srv.URL, id, campaignDone)
	if st.Points != campaignPointCount || st.Completed != campaignPointCount ||
		st.Seq != campaignPointCount+1 {
		t.Fatalf("terminal status %+v", st)
	}

	lines := attachLines(t, srv.URL, id, 0)
	if len(lines) != campaignPointCount+1 {
		t.Fatalf("%d frames, want %d", len(lines), campaignPointCount+1)
	}
	// Frames carry contiguous seqs from 1, and the terminal is done.
	for i, l := range lines {
		var f streamFrame
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatal(err)
		}
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}
	var last streamFrame
	json.Unmarshal([]byte(lines[len(lines)-1]), &last)
	if last.Done == nil || !*last.Done {
		t.Fatalf("terminal frame %q not done", lines[len(lines)-1])
	}
	// Results match an uninterrupted local run, index for index.
	points := campaignTestPoints(t)
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	got := resultsByIndex(t, lines)
	for i, w := range want {
		wj, _ := json.Marshal(w)
		if got[i] != string(wj) {
			t.Fatalf("index %d: resource %s, local %s", i, got[i], wj)
		}
	}

	// Reattach is byte-identical replay; a ?from= cursor is an exact
	// suffix of the full stream.
	again := attachLines(t, srv.URL, id, 0)
	if strings.Join(again, "\n") != strings.Join(lines, "\n") {
		t.Fatal("reattach replay differs from first attach")
	}
	for from := 1; from <= campaignPointCount; from++ {
		suffix := attachLines(t, srv.URL, id, uint64(from))
		if strings.Join(suffix, "\n") != strings.Join(lines[from:], "\n") {
			t.Fatalf("?from=%d not an exact suffix", from)
		}
	}
	// A cursor at/past the terminal frame re-emits it, never hangs.
	end := attachLines(t, srv.URL, id, campaignPointCount+1)
	if len(end) != 1 || end[0] != lines[len(lines)-1] {
		t.Fatalf("past-the-end attach got %v", end)
	}

	// The SSE encoding carries the same frame bytes in its data lines.
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var data []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if l := sc.Text(); strings.HasPrefix(l, "data: ") {
			data = append(data, strings.TrimPrefix(l, "data: "))
		}
	}
	if strings.Join(data, "\n") != strings.Join(lines, "\n") {
		t.Fatal("SSE data lines differ from NDJSON lines")
	}

	// Cancelling a finished campaign is a 200 no-op.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE after done: status %d", dresp.StatusCode)
	}
}

func TestCampaignResourceErrors(t *testing.T) {
	srv := testServer(t)
	id := createCampaign(t, srv.URL, "errs", campaignPointsBody)
	waitCampaignState(t, srv.URL, id, campaignDone)

	expectEnvelope := func(resp *http.Response, status int, code, campaignID string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("not an error envelope: %v", err)
		}
		if env.Error.Code != code || env.Error.Message == "" || env.Error.CampaignID != campaignID {
			t.Fatalf("envelope %+v, want code %q campaign %q", env.Error, code, campaignID)
		}
	}

	// Duplicate create: 409 conflict naming the campaign.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/campaigns", strings.NewReader(campaignPointsBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Campaign-ID", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusConflict, "conflict", id)

	// Unknown campaign: 404 not_found with the requested ID.
	resp, err = http.Get(srv.URL + "/v1/campaigns/nope/status")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusNotFound, "not_found", "nope")

	// Bad cursor: 400 bad_request.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + id + "?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusBadRequest, "bad_request", id)

	// Empty point list: 400.
	resp = postJSON(t, srv.URL+"/v1/campaigns", `{"points":[]}`)
	var env ErrorEnvelope
	if resp.StatusCode != http.StatusBadRequest ||
		json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Code != "bad_request" {
		t.Fatalf("empty points: status %d, envelope %+v", resp.StatusCode, env)
	}

	// Wrong method on the collection: 405 with the envelope.
	resp, err = http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	expectEnvelope(resp, http.StatusMethodNotAllowed, "method_not_allowed", "")
}

// TestCampaignCancel parks the campaign behind an occupied simulation
// slot so DELETE races nothing: the cancel lands while the campaign is
// deterministically queued, and the stream ends with a cancelled frame.
func TestCampaignCancel(t *testing.T) {
	s := New(sdpolicy.NewEngine(2, 64), 1)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	s.slots <- struct{}{} // occupy the only slot
	defer func() { <-s.slots }()

	id := createCampaign(t, srv.URL, "cxl", campaignPointsBody)
	if st := campaignStatus(t, srv.URL, id); st.State != campaignRunning {
		t.Fatalf("queued campaign state %q", st.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	st := waitCampaignState(t, srv.URL, id, campaignCancelled)
	if st.Completed != 0 {
		t.Fatalf("cancelled-while-queued campaign completed %d points", st.Completed)
	}
	lines := attachLines(t, srv.URL, id, 0)
	if len(lines) != 1 {
		t.Fatalf("%d frames, want just the cancelled terminal", len(lines))
	}
	var f streamFrame
	json.Unmarshal([]byte(lines[0]), &f)
	if f.Cancelled == nil || !*f.Cancelled || f.Seq != 1 {
		t.Fatalf("terminal frame %q, want cancelled seq 1", lines[0])
	}
}

func TestAliasDeprecationHeaders(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v1/campaign", campaignPointsBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alias status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" ||
		!strings.Contains(resp.Header.Get("Link"), "/v1/campaigns") {
		t.Fatalf("alias missing deprecation headers: Deprecation=%q Link=%q",
			resp.Header.Get("Deprecation"), resp.Header.Get("Link"))
	}
}

// TestStandbyGatesCampaignPlane: a journal-backed instance refuses all
// campaign work with 503 until Activate, then serves normally.
func TestStandbyGatesCampaignPlane(t *testing.T) {
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdpolicy.NewEngine(2, 64), 4)
	s.EnableJournal(j)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	expect503 := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("standby status %d, want 503", resp.StatusCode)
		}
		var env ErrorEnvelope
		if json.NewDecoder(resp.Body).Decode(&env) != nil || env.Error.Code != "unavailable" {
			t.Fatalf("standby envelope %+v", env)
		}
	}
	expect503(http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(campaignPointsBody)))
	expect503(http.Get(srv.URL + "/v1/campaigns/whatever"))
	expect503(http.Post(srv.URL+"/v1/campaign", "application/json", strings.NewReader(campaignPointsBody)))
	if h := fetchHealth(t, srv.URL); h.Role != "standby" {
		t.Fatalf("standby role %q", h.Role)
	}

	s.Activate()
	if h := fetchHealth(t, srv.URL); h.Role != "active" {
		t.Fatalf("activated role %q", h.Role)
	}
	id := createCampaign(t, srv.URL, "post-activate", campaignPointsBody)
	waitCampaignState(t, srv.URL, id, campaignDone)
}

// TestJournalCrashResume is the durability contract end to end: a
// journaled campaign killed mid-flight (simulated by truncating the
// journal to a prefix plus a torn tail, exactly what kill -9 leaves)
// is resumed by a fresh server — replayed frames byte-identical,
// completed points NOT re-simulated, resumed results identical to the
// uninterrupted run's.
func TestJournalCrashResume(t *testing.T) {
	dir := t.TempDir()
	j1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(sdpolicy.NewEngine(2, 64), 4)
	s1.EnableJournal(j1)
	s1.Activate()
	srv1 := httptest.NewServer(s1.Handler())
	id := createCampaign(t, srv1.URL, "crashme", campaignPointsBody)
	waitCampaignState(t, srv1.URL, id, campaignDone)
	full := attachLines(t, srv1.URL, id, 0)
	reference := resultsByIndex(t, full)
	srv1.Close()

	// Keep the create record and the first two results; drop the rest
	// and tear the tail, as a kill -9 mid-append would.
	path := filepath.Join(dir, id+".journal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(jlines) != campaignPointCount+2 {
		t.Fatalf("journal has %d lines, want %d", len(jlines), campaignPointCount+2)
	}
	const keepResults = 2
	truncated := strings.Join(jlines[:1+keepResults], "\n") + "\n" + `{"seq":` // torn tail
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server (fresh engine: no cache carry-over) adopts the
	// journal and finishes the campaign.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	engine2 := sdpolicy.NewEngine(2, 64)
	s2 := New(engine2, 4)
	s2.EnableJournal(j2)
	stats := s2.Activate()
	if stats.Resumed != 1 || stats.SkippedPoints != keepResults || stats.Completed != 0 {
		t.Fatalf("activation stats %+v, want 1 resumed / %d skipped", stats, keepResults)
	}
	srv2 := httptest.NewServer(s2.Handler())
	t.Cleanup(srv2.Close)

	resumedFull := attachLines(t, srv2.URL, id, 0)
	if len(resumedFull) != campaignPointCount+1 {
		t.Fatalf("resumed stream has %d frames, want %d", len(resumedFull), campaignPointCount+1)
	}
	// The journaled prefix replays byte-identically.
	for i := 0; i < keepResults; i++ {
		if resumedFull[i] != full[i] {
			t.Fatalf("replayed frame %d differs:\n%s\nvs\n%s", i, resumedFull[i], full[i])
		}
	}
	// Every result — replayed or re-run — matches the uninterrupted run.
	resumed := resultsByIndex(t, resumedFull)
	for i := 0; i < campaignPointCount; i++ {
		if resumed[i] != reference[i] {
			t.Fatalf("index %d after resume: %s, want %s", i, resumed[i], reference[i])
		}
	}
	// Zero re-simulation of checkpointed points: the fresh engine saw
	// exactly the remaining points, nothing more.
	if _, misses := engine2.CacheStats(); misses != campaignPointCount-keepResults {
		t.Fatalf("resumed engine simulated %d points, want %d", misses, campaignPointCount-keepResults)
	}
	// The finished journal is terminal: a third activation just loads it.
	j3, _ := journal.Open(dir)
	s3 := New(sdpolicy.NewEngine(2, 64), 4)
	s3.EnableJournal(j3)
	if stats := s3.Activate(); stats.Resumed != 0 || stats.Completed != 1 {
		t.Fatalf("post-resume activation stats %+v, want 1 completed", stats)
	}
}

// cutConn aborts the response after a byte budget, standing in for a
// dropped connection mid-stream.
type cutWriter struct {
	http.ResponseWriter
	remaining *atomic.Int64
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.remaining.Add(-int64(len(p))) < 0 {
		panic(http.ErrAbortHandler)
	}
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestDurableClientRidesThroughDisconnect cuts the first attach stream
// after ~one frame; RunDurableCampaign must reattach with its cursor
// and deliver every result exactly once.
func TestDurableClientRidesThroughDisconnect(t *testing.T) {
	s := New(sdpolicy.NewEngine(2, 64), 4)
	inner := s.Handler()
	var attaches atomic.Int64
	var budget atomic.Int64
	budget.Store(300) // roughly one result frame
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/campaigns/") {
			if attaches.Add(1) == 1 {
				inner.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: &budget}, r)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	points := campaignTestPoints(t)
	got := make(map[int]*sdpolicy.Result)
	err := RunDurableCampaign(context.Background(), nil, []string{srv.URL}, points, false,
		func(index int, res *sdpolicy.Result, report json.RawMessage) error {
			if _, dup := got[index]; dup {
				t.Fatalf("index %d emitted twice", index)
			}
			got[index] = res
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != campaignPointCount {
		t.Fatalf("delivered %d results, want %d", len(got), campaignPointCount)
	}
	if attaches.Load() < 2 {
		t.Fatalf("stream was cut but only %d attach(es) happened", attaches.Load())
	}
	want, err := sdpolicy.NewEngine(4, 64).Run(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		gj, _ := json.Marshal(got[i])
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Fatalf("index %d: %s, want %s", i, gj, wj)
		}
	}
}

// TestDurableClientsShareRetryRules drives both resource clients
// through one fault script: the first create answers 503, which must
// rotate to the next base and retry; the second answers a status that
// would repeat on every retry, which must end the run at once. The
// caller's bases carry trailing slashes the clients strip from their
// own copy, leaving the caller's slice as given.
func TestDurableClientsShareRetryRules(t *testing.T) {
	ctx := context.Background()
	points := campaignTestPoints(t)
	clients := []struct {
		name, path string
		run        func(bases []string) error
	}{
		{"campaign", "/v1/campaigns", func(bases []string) error {
			return RunDurableCampaign(ctx, nil, bases, points, false,
				func(int, *sdpolicy.Result, json.RawMessage) error { return nil })
		}},
		{"experiment", "/v1/experiments", func(bases []string) error {
			_, err := RunRemoteExperiment(ctx, nil, bases, "table2", nil, nil)
			return err
		}},
	}
	for _, c := range clients {
		for _, status := range []int{http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusUnsupportedMediaType} {
			var creates atomic.Int64
			var badPath atomic.Value
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != c.path {
					badPath.Store(r.URL.Path)
				}
				if creates.Add(1) == 1 {
					writeError(w, http.StatusServiceUnavailable, errStandby)
					return
				}
				writeError(w, status, fmt.Errorf("scripted refusal"))
			}))
			bases := []string{srv.URL + "/", srv.URL + "//"}
			err := c.run(bases)
			srv.Close()
			if err == nil || !strings.Contains(err.Error(), "scripted refusal") {
				t.Fatalf("%s, status %d: err = %v, want the scripted refusal", c.name, status, err)
			}
			if n := creates.Load(); n != 2 {
				t.Fatalf("%s, status %d: %d creates, want 2 (one retry after 503, none after %d)",
					c.name, status, n, status)
			}
			if p := badPath.Load(); p != nil {
				t.Fatalf("%s: request path %q, want %s", c.name, p, c.path)
			}
			if bases[0] != srv.URL+"/" || bases[1] != srv.URL+"//" {
				t.Fatalf("%s: caller's bases rewritten to %q", c.name, bases)
			}
		}
	}
}

// TestPeerTableFailoverAdoption: a journal-backed coordinator persists
// registered workers; a fresh instance sharing the journal directory
// adopts them on activation.
func TestPeerTableFailoverAdoption(t *testing.T) {
	dir := t.TempDir()
	j1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(sdpolicy.NewEngine(1, 64), 4)
	s1.EnableJournal(j1)
	if err := s1.EnableCoordinator(CoordinatorConfig{ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.BeginShutdown)
	s1.Activate()
	srv1 := httptest.NewServer(s1.Handler())
	t.Cleanup(srv1.Close)
	registerWorker(t, srv1.URL, "http://127.0.0.1:59999", 600)
	if _, err := os.Stat(filepath.Join(dir, "peers.json")); err != nil {
		t.Fatalf("peer table not persisted: %v", err)
	}

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(sdpolicy.NewEngine(1, 64), 4)
	s2.EnableJournal(j2)
	if err := s2.EnableCoordinator(CoordinatorConfig{ProbeInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.BeginShutdown)
	if stats := s2.Activate(); stats.AdoptedPeers != 1 {
		t.Fatalf("activation stats %+v, want 1 adopted peer", stats)
	}
	snap := s2.coord.peers.snapshot()
	if len(snap) != 1 || snap[0].URL != "http://127.0.0.1:59999" || snap[0].Source != "registered" {
		t.Fatalf("adopted peer table %+v", snap)
	}
}
