package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sdpolicy"
)

// This file is the client side of the stream wire forms. The
// request-scoped /v1/campaign form (postCampaign, workerEvent) backs the
// coordinator's per-shard fan-out, which adds worker-fault
// classification and partial-shard tracking on top. The resource forms
// /v1/campaigns and /v1/experiments share one durable loop (runDurable)
// behind RunDurableCampaign and RunRemoteExperiment.

// postCampaign marshals points in the shared PointSpec wire form and
// opens an NDJSON /v1/campaign stream against base (no trailing
// slash). With reports, the ?reports=1 query param negotiates per-job
// report frames: a worker that understands it follows each result line
// with a report line, and one that doesn't simply ignores the param —
// old and new fleet members interoperate either way. A non-empty
// campaignID rides the X-Campaign-ID header so the worker logs the
// same campaign ID the coordinator does; an old worker ignores the
// header. The caller owns closing the response body and interpreting
// non-200 statuses.
func postCampaign(ctx context.Context, hc *http.Client, base string, points []sdpolicy.Point, reports bool, campaignID string) (*http.Response, error) {
	body, err := json.Marshal(struct {
		Points []sdpolicy.Point `json:"points"`
		Format string           `json:"format"`
	}{Points: points, Format: "ndjson"})
	if err != nil {
		return nil, err
	}
	url := base + "/v1/campaign"
	if reports {
		url += "?reports=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if campaignID != "" {
		req.Header.Set("X-Campaign-ID", campaignID)
	}
	return hc.Do(req)
}

// workerEvent decodes any line of a /v1/campaign NDJSON stream: result
// lines carry Index/Result, negotiated report lines carry
// ReportFor/Report, the terminal line carries Done, Shutdown or Error.
// The echoed point and done-count fields are deliberately not decoded —
// no consumer reads them.
type workerEvent struct {
	Index     *int             `json:"index"`
	Result    *sdpolicy.Result `json:"result"`
	ReportFor *int             `json:"report_for"`
	Report    json.RawMessage  `json:"report"`
	Done      *bool            `json:"done"`
	Shutdown  *bool            `json:"shutdown"`
	Error     *string          `json:"error"`
	// Trace marks a ?trace=1 summary frame. Consumers here never ask
	// for one, but decoding it keeps the loops tolerant of a server
	// that sends it anyway instead of killing the worker for it.
	Trace *bool `json:"trace"`
}

// reportFrame is the negotiated per-job-report stream line (NDJSON
// line / SSE event "report"): the full report for the result already
// streamed at index ReportFor. Only emitted when the request carried
// ?reports=1, so clients that never ask never see it.
type reportFrame struct {
	ReportFor int             `json:"report_for"`
	Report    json.RawMessage `json:"report"`
}

// eventKind classifies a /v1/campaign stream line for the
// coordinator's fan-out.
type eventKind int

const (
	evResult eventKind = iota
	evReport
	evTrace
	evDone
	evShutdown
	evError
	evUnknown
)

func (ev workerEvent) kind() eventKind {
	switch {
	case ev.Index != nil:
		return evResult
	case ev.ReportFor != nil:
		return evReport
	case ev.Trace != nil && *ev.Trace:
		return evTrace
	case ev.Done != nil && *ev.Done:
		return evDone
	case ev.Shutdown != nil && *ev.Shutdown:
		return evShutdown
	case ev.Error != nil:
		return evError
	default:
		return evUnknown
	}
}

// readError summarises a non-200 campaign response.
func readError(base string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("%s: status %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
}

// streamFrame decodes any line of a /v1/campaigns/{id} or
// /v1/experiments/{id} NDJSON stream. Unlike the alias's workerEvent,
// every resource frame carries a monotonic Seq — the reattach cursor —
// and the terminal error is the structured ErrorDetail, not a bare
// string. Campaign streams carry results and reports; experiment
// streams carry rows and, on the done frame, the summary.
type streamFrame struct {
	Seq       uint64           `json:"seq"`
	Index     *int             `json:"index"`
	Result    *sdpolicy.Result `json:"result"`
	ReportFor *int             `json:"report_for"`
	Report    json.RawMessage  `json:"report"`
	Row       json.RawMessage  `json:"row"`
	Summary   json.RawMessage  `json:"summary"`
	Done      *bool            `json:"done"`
	Cancelled *bool            `json:"cancelled"`
	Shutdown  *bool            `json:"shutdown"`
	Error     *ErrorDetail     `json:"error"`
}

// durable-client retry tuning: transient failures (connection refused,
// 503 from a standby, a mid-stream disconnect) rotate to the next base
// and back off exponentially; any frame carrying a seq resets the
// clock. The cap bounds a total outage to roughly a minute.
const (
	durableBackoffBase = 100 * time.Millisecond
	durableBackoffMax  = 2 * time.Second
	durableMaxFailures = 30
)

// runDurable creates one resource of the named collection ("campaigns"
// or "experiments") from body against a set of equivalent server bases
// (the active coordinator and its failover standbys) and streams it
// until its done frame, which it returns.
//
// The resource ID is client-chosen, so a create retried against
// another base, or after an ambiguous failure, is idempotent: a 409
// means an earlier attempt won, which is success. The stream then
// reattaches — to any base — with ?from=<last seq> on a disconnect,
// a shutdown frame or a coordinator failover. Every frame that is not
// terminal goes to onFrame; an onFrame error aborts the run. The run
// gives up only on a deterministic failure (see statusError, the
// resource's own error or cancellation) or after durableMaxFailures
// consecutive transient ones. The caller's bases are not modified.
func runDurable(ctx context.Context, client *http.Client, bases []string, collection string, body any, onFrame func(base string, f *streamFrame) error) (*streamFrame, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if len(bases) == 0 {
		return nil, errors.New("no server bases")
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	trimmed := make([]string, len(bases))
	for i, b := range bases {
		trimmed[i] = strings.TrimRight(b, "/")
	}
	bases = trimmed
	path := "/v1/" + collection
	noun := strings.TrimSuffix(collection, "s")
	id := newCampaignID()
	cur, failures := 0, 0
	// retry returns a fatal error's cause; for a transient one it
	// rotates to the next base and sleeps out the backoff, or gives up
	// once the budget is spent.
	retry := func(err error) error {
		var fatal *fatalStreamError
		if errors.As(err, &fatal) {
			return fatal.err
		}
		failures++
		if failures >= durableMaxFailures {
			return fmt.Errorf("giving up after %d consecutive failures: %w", failures, err)
		}
		cur = (cur + 1) % len(bases)
		delay := durableBackoffBase << (failures - 1)
		if delay > durableBackoffMax || delay <= 0 {
			delay = durableBackoffMax
		}
		select {
		case <-time.After(delay):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	create := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, bases[cur]+path, bytes.NewReader(data))
		if err != nil {
			return &fatalStreamError{err}
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Campaign-ID", id)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return statusError(bases[cur], resp)
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	for {
		err := create()
		if err == nil {
			break
		}
		if err := retry(err); err != nil {
			return nil, err
		}
	}

	var lastSeq uint64
	attach := func() (*streamFrame, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s%s/%s?from=%d", bases[cur], path, id, lastSeq), nil)
		if err != nil {
			return nil, &fatalStreamError{err}
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, statusError(bases[cur], resp)
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var f streamFrame
			if err := dec.Decode(&f); err != nil {
				return nil, fmt.Errorf("%s: stream ended early: %w", bases[cur], err)
			}
			if f.Seq > 0 {
				lastSeq = f.Seq
				failures = 0
			}
			switch {
			case f.Done != nil && *f.Done:
				return &f, nil
			case f.Cancelled != nil && *f.Cancelled:
				return nil, &fatalStreamError{fmt.Errorf("%s %s was cancelled", noun, id)}
			case f.Error != nil && f.Seq > 0:
				return nil, &fatalStreamError{fmt.Errorf("%s %s failed: %s: %s", noun, id, f.Error.Code, f.Error.Message)}
			case f.Shutdown != nil && *f.Shutdown:
				return nil, fmt.Errorf("%s shut down mid-stream", bases[cur])
			}
			if err := onFrame(bases[cur], &f); err != nil {
				return nil, &fatalStreamError{err}
			}
		}
	}
	for {
		done, err := attach()
		if err == nil {
			return done, nil
		}
		if err := retry(err); err != nil {
			return nil, err
		}
	}
}

// statusError summarises a non-success response of a resource request,
// marking it fatal when its status would repeat on every retry and
// every base: a malformed or unsupported request, or a resource the
// fleet does not know.
func statusError(base string, resp *http.Response) error {
	err := readError(base, resp)
	switch resp.StatusCode {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusUnsupportedMediaType:
		return &fatalStreamError{err}
	}
	return err
}

// fatalStreamError marks a durable-client failure no retry can fix:
// the resource itself ended badly or the server rejected the request
// deterministically.
type fatalStreamError struct{ err error }

func (e *fatalStreamError) Error() string { return e.err.Error() }
func (e *fatalStreamError) Unwrap() error { return e.err }

// RunDurableCampaign executes points as a /v1/campaigns resource
// against a set of equivalent server bases (see runDurable), calling
// emit for each delivery in completion order: result deliveries carry
// a non-nil res for points[index], and — when reports is true,
// negotiating the per-job-report frames — report deliveries follow
// with a nil res and the report encoding for an index already
// delivered (feed it to Engine.PrimeProxied to warm a local cache).
// Frames are deduplicated by point index, so the emit sequence across
// reattaches is identical to an uninterrupted run's. It backs sdexp
// -points -server.
func RunDurableCampaign(ctx context.Context, client *http.Client, bases []string, points []sdpolicy.Point, reports bool, emit func(index int, res *sdpolicy.Result, report json.RawMessage) error) error {
	seen := make(map[int]bool)
	seenReport := make(map[int]bool)
	_, err := runDurable(ctx, client, bases, "campaigns", struct {
		Points  []sdpolicy.Point `json:"points"`
		Reports bool             `json:"reports,omitempty"`
	}{Points: points, Reports: reports}, func(base string, f *streamFrame) error {
		switch {
		case f.Index != nil:
			if *f.Index < 0 || *f.Index >= len(points) || f.Result == nil {
				return fmt.Errorf("%s: malformed result frame (index %v)", base, *f.Index)
			}
			if seen[*f.Index] {
				return nil
			}
			seen[*f.Index] = true
			return emit(*f.Index, f.Result, nil)
		case f.ReportFor != nil:
			if *f.ReportFor < 0 || *f.ReportFor >= len(points) || len(f.Report) == 0 || seenReport[*f.ReportFor] {
				return nil
			}
			seenReport[*f.ReportFor] = true
			return emit(*f.ReportFor, nil, f.Report)
		}
		// Unknown frame kinds are skipped (the cursor already
		// advanced): a newer server may add informational frames.
		return nil
	})
	return err
}
