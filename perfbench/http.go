package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sdpolicy"
	"sdpolicy/internal/journal"
	"sdpolicy/internal/serve"
)

// httpServer is one in-process sdserve listener on loopback.
type httpServer struct {
	url  string
	api  *serve.Server
	srv  *http.Server
	done chan struct{}
}

// listen serves api on an ephemeral loopback port.
func listen(api *serve.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), api: api,
		srv: &http.Server{Handler: api.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close ends open streams, closes the listener and connections, and
// waits for the serving goroutine.
func (s *httpServer) close() {
	s.api.BeginShutdown()
	s.srv.Close()
	<-s.done
}

// fleet is an in-process coordinator in front of worker servers, all
// on loopback.
type fleet struct {
	servers []*httpServer // workers first, the front server last
	url     string        // the front server
}

// startServer starts one server over engine, journaled in journalDir
// when it is non-empty, fronting workers when there are any.
func startServer(engine *sdpolicy.Engine, journalDir string, workers []string) (*httpServer, error) {
	api := serve.New(engine, 0)
	if journalDir != "" {
		j, err := journal.Open(journalDir)
		if err != nil {
			return nil, err
		}
		api.EnableJournal(j)
	}
	if len(workers) > 0 {
		// An hour-long probe interval keeps the health prober quiet: the
		// workers never fail here.
		if err := api.EnableCoordinator(serve.CoordinatorConfig{Workers: workers, ProbeInterval: time.Hour}); err != nil {
			return nil, err
		}
	}
	api.Activate()
	s, err := listen(api)
	if err != nil {
		api.BeginShutdown()
		return nil, err
	}
	return s, nil
}

// startFleet starts one worker server per worker engine and a journaled
// coordinator over them whose own engine serves /v1/simulate.
func startFleet(coordEngine *sdpolicy.Engine, workerEngines []*sdpolicy.Engine, journalDir string) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for _, e := range workerEngines {
		s, err := startServer(e, "", nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
		urls = append(urls, s.url)
	}
	s, err := startServer(coordEngine, journalDir, urls)
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, s)
	f.url = s.url
	return f, nil
}

// close stops the front server first, so no campaign fans out to a
// worker that is already gone.
func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	f.servers = nil
}

// newClient returns a keep-alive client with enough idle connections
// for every caller.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 4 * conns,
		IdleConnTimeout:     time.Minute,
	}}
}

// errRefused marks an operation the server refused or failed: a non-2xx
// status, an error frame or a transport error. It counts in failed_frac,
// never as a wrong output.
var errRefused = errors.New("refused")

// refused reports whether err is an operation failure rather than a
// wrong output.
func refused(err error) bool { return errors.Is(err, errRefused) }

// simulateBody encodes one /v1/simulate request addressing its
// workload by workload_ref.
func simulateBody(p sdpolicy.Point) ([]byte, error) {
	return json.Marshal(pointSpec(p))
}

// pointSpec is the wire form of a plain preset point, addressed by
// workload_ref.
func pointSpec(p sdpolicy.Point) sdpolicy.PointSpec {
	ref := sdpolicy.WorkloadRef{Name: p.Workload, Scale: p.Scale, Seed: p.Seed}
	return sdpolicy.PointSpec{Ref: &ref, Options: p.Options}
}

// campaignBody encodes a POST /v1/campaigns request.
func campaignBody(points []sdpolicy.Point) ([]byte, error) {
	specs := make([]sdpolicy.PointSpec, len(points))
	for i, p := range points {
		specs[i] = pointSpec(p)
	}
	return json.Marshal(serve.CreateCampaignRequest{Points: specs})
}

// experimentBody encodes a POST /v1/experiments request.
func experimentBody(c experimentCall) ([]byte, error) {
	params := make(map[string]json.RawMessage, len(c.params))
	for k, v := range c.params {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		params[k] = b
	}
	return json.Marshal(serve.CreateExperimentRequest{Experiment: c.name, Params: params})
}

// post sends a JSON body and returns the status and the response body
// appended to buf.
func post(ctx context.Context, hc *http.Client, url, id string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Campaign-ID", id)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errRefused, err)
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("%w: %v", errRefused, err)
	}
	return resp.StatusCode, nil
}

// simulate posts one /v1/simulate request and returns the compacted
// result encoding in out (reset first) and the raw response size.
func simulate(ctx context.Context, hc *http.Client, base string, body []byte, raw, out *bytes.Buffer) (int, error) {
	raw.Reset()
	status, err := post(ctx, hc, base+"/v1/simulate", "", body, raw)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%w: /v1/simulate status %d", errRefused, status)
	}
	out.Reset()
	if err := json.Compact(out, raw.Bytes()); err != nil {
		return 0, fmt.Errorf("/v1/simulate: %w", err)
	}
	return raw.Len(), nil
}

// frame is any line of a campaign or experiment NDJSON stream.
type frame struct {
	Index     *int            `json:"index"`
	Result    json.RawMessage `json:"result"`
	Done      *bool           `json:"done"`
	Summary   json.RawMessage `json:"summary"`
	Error     json.RawMessage `json:"error"`
	Cancelled *bool           `json:"cancelled"`
	Shutdown  *bool           `json:"shutdown"`
}

// runCampaign creates a campaign resource with the given ID, attaches
// to its stream and calls onResult for every result frame until the
// done frame. A refusal, an error, cancelled or shutdown frame, or a
// stream that ends early is a failed operation.
func runCampaign(ctx context.Context, hc *http.Client, base, id string, body []byte, onResult func(i int, res []byte) error) error {
	return createAndAttach(ctx, hc, base+"/v1/campaigns", id, body, func(f *frame) (bool, error) {
		if f.Index != nil && f.Result != nil {
			return false, onResult(*f.Index, f.Result)
		}
		return f.Done != nil, nil
	})
}

// runExperiment creates an experiment resource, attaches to its reduced
// stream and returns the terminal summary's encoding.
func runExperiment(ctx context.Context, hc *http.Client, base, id string, body []byte) ([]byte, error) {
	var summary []byte
	err := createAndAttach(ctx, hc, base+"/v1/experiments", id, body, func(f *frame) (bool, error) {
		if f.Done == nil {
			return false, nil
		}
		summary = append([]byte(nil), f.Summary...)
		return true, nil
	})
	return summary, err
}

// createAndAttach posts a create request to collection, then attaches
// to the created resource's NDJSON stream and hands every frame to
// handle until it reports the terminal frame.
func createAndAttach(ctx context.Context, hc *http.Client, collection, id string, body []byte, handle func(*frame) (bool, error)) error {
	var buf bytes.Buffer
	status, err := post(ctx, hc, collection, id, body, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("%w: create status %d: %s", errRefused, status, strings.TrimSpace(buf.String()))
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &created); err != nil {
		return fmt.Errorf("create reply: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, collection+"/"+created.ID, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errRefused, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w: attach status %d", errRefused, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var f frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("stream frame: %w", err)
		}
		if f.Error != nil || f.Cancelled != nil || f.Shutdown != nil {
			return fmt.Errorf("%w: terminal frame %s", errRefused, sc.Bytes())
		}
		done, err := handle(&f)
		if err != nil || done {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: %v", errRefused, err)
	}
	return fmt.Errorf("%w: stream ended without a terminal frame", errRefused)
}

// scrape reads the named counters from a server's /metrics, summing
// every label set of each.
func scrape(ctx context.Context, hc *http.Client, base string, names ...string) (map[string]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = 0
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, rest, ok = line[:i], line[strings.LastIndexByte(line, '}')+1:], true
		}
		if _, want := out[name]; !want || !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
		out[name] += uint64(v)
	}
	return out, sc.Err()
}
