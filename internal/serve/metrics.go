package serve

import (
	"net/http"
	"strconv"
	"time"

	"sdpolicy/internal/telemetry"
)

// Fleet and front-end telemetry. The fleet series carry a peer label
// (the worker base URL) so a Grafana panel over a 3-worker fleet shows
// who actually did the work, who kept dying, and who stole the slack.
var (
	mShardsQueued = telemetry.NewCounter("fleet_shards_queued_total",
		"Shard jobs enqueued for fan-out (initial planning; requeues counted separately).")
	mShardsStolen = telemetry.NewCounterVec("fleet_shards_stolen_total",
		"Shard jobs taken from the queue, by the peer whose loop took them.", "peer")
	mPointsLocal = telemetry.NewCounter("fleet_points_local_total",
		"Campaign points the coordinator served from its own cache, without fan-out.")
	mShardsRequeued = telemetry.NewCounter("fleet_shards_requeued_total",
		"Failed shards whose unresolved remainder went back on the queue.")
	mPeerInflight = telemetry.NewGaugeVec("fleet_peer_inflight",
		"Shards currently streaming through each peer.", "peer")
	mPeerTransitions = telemetry.NewCounterVec("fleet_peer_transitions_total",
		"Peer state machine transitions (new/alive/dead/probing).", "peer", "from", "to")
	mProbeFailures = telemetry.NewCounterVec("fleet_probe_failures_total",
		"Health probes that failed, per peer.", "peer")
	mProbeBackoff = telemetry.NewGaugeVec("fleet_probe_backoff_seconds",
		"Current re-probe backoff per out-of-rotation peer (0 = in rotation).", "peer")
	mLeaseRenewals = telemetry.NewCounter("fleet_lease_renewals_total",
		"Heartbeat lease renewals by registered workers.")
	mLeaseExpiries = telemetry.NewCounter("fleet_lease_expiries_total",
		"Registered workers dropped because their lease expired unrenewed.")

	mCampaignsCreated = telemetry.NewCounter("campaigns_created_total",
		"Campaign resources created via POST /v1/campaigns.")
	mCampaignAttaches = telemetry.NewCounter("campaign_attaches_total",
		"Stream attaches to campaign resources (GET /v1/campaigns/{id}), including reattaches.")
	mCampaignsResumed = telemetry.NewCounter("campaigns_resumed_total",
		"Incomplete journaled campaigns restarted by Activate (server restart or failover adoption).")
	mResumeSkipped = telemetry.NewCounter("campaign_resume_points_skipped_total",
		"Points NOT re-dispatched on campaign resume because their result was already journaled.")
	mJournalRecords = telemetry.NewCounter("journal_records_total",
		"Records appended to campaign journals (create records included).")
	mAdoptions = telemetry.NewCounter("failover_adoptions_total",
		"Times this instance activated the campaign plane (lease acquisitions, incl. startup).")
	mLeaseHeld = telemetry.NewGauge("coordinator_lease_held",
		"1 while this instance holds the coordinator lease (active), 0 on standby.")

	mExperimentsStarted = telemetry.NewCounterVec("experiments_started_total",
		"Experiment resources created via POST /v1/experiments, by experiment name.", "experiment")
	mExperimentsCompleted = telemetry.NewCounterVec("experiments_completed_total",
		"Experiment-backed campaigns that reached a terminal state, by experiment and outcome.",
		"experiment", "outcome")
	mExperimentAttaches = telemetry.NewCounter("experiment_attaches_total",
		"Stream attaches to experiment resources (GET /v1/experiments/{id}), including reattaches.")
	mExperimentSeconds = telemetry.NewHistogramVec("experiment_seconds",
		"Wall time from experiment campaign start to its terminal frame, by experiment.",
		telemetry.DefBuckets, "experiment")

	mHTTPRequests = telemetry.NewCounterVec("http_requests_total",
		"API requests served, by route and status code.", "route", "code")
	mHTTPSeconds = telemetry.NewHistogramVec("http_request_seconds",
		"API request latency by route (streaming routes measure the full stream).",
		telemetry.DefBuckets, "route")
)

// statusWriter captures the response status for the request counter. It
// forwards Flush so streaming handlers behind the middleware still
// reach the client incrementally — newStreamWriter type-asserts
// http.Flusher on whatever ResponseWriter it is handed.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps one route with request counting and latency
// observation. The route label is the registered pattern, not the raw
// URL, so cardinality stays bounded no matter what clients request.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		mHTTPRequests.With(route, strconv.Itoa(sw.code)).Inc()
		mHTTPSeconds.With(route).Observe(time.Since(begin).Seconds())
	}
}
