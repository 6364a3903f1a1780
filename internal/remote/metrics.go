// Telemetry instruments for the remote tier, registered on the process
// default registry so every CLI with -telemetry (and labcached itself)
// exposes them. Client-side families answer "is the remote tier helping
// or hurting" at a glance: gets by outcome, breaker state and opens,
// write-back queue depth and drops, latency histograms. Server-side
// families count requests by verb and outcome.

package remote

import "activemem/internal/telemetry"

// Client-side GET outcomes, the label values of remote_gets_total.
const (
	getHit = iota
	getMiss
	getNotModified
	getError       // connection failure, timeout, 5xx after retries
	getCorrupt     // body arrived, checksum disagreed — never decoded
	getBreakerOpen // fast-failed locally, no request sent
	getSchemaMiss  // 412: server speaks another schema generation
	numGetOutcomes
)

var getOutcomeNames = [numGetOutcomes]string{
	"hit", "miss", "not_modified", "error", "corrupt", "breaker_open", "schema_mismatch"}

// Client-side PUT outcomes, the label values of remote_puts_total.
const (
	putStored = iota
	putExists
	putError
	putDropped // queue full, or abandoned at Close's drain deadline
	putShed    // refused up front: breaker open, tier disabled or closed, oversized
	numPutOutcomes
)

var putOutcomeNames = [numPutOutcomes]string{"stored", "exists", "error", "dropped", "shed"}

var (
	mGets [numGetOutcomes]*telemetry.Counter
	mPuts [numPutOutcomes]*telemetry.Counter

	mRetries = telemetry.Default.NewCounter("remote_retries_total",
		"Request attempts beyond the first (bounded exponential backoff with jitter).")
	mBreakerOpens = telemetry.Default.NewCounter("remote_breaker_opens_total",
		"Circuit-breaker transitions to open (consecutive remote failures reached the threshold).")
	mBreakerState = telemetry.Default.NewGauge("remote_breaker_state",
		"Circuit-breaker state: 0 closed (healthy), 1 half-open (probing), 2 open (fast-failing).")
	mPutQueueDepth = telemetry.Default.NewGauge("remote_put_queue_depth",
		"Computed results queued for asynchronous write-back to the remote cache.")
	mGetSeconds = telemetry.Default.NewHistogram("remote_get_seconds",
		"Remote GET span including retries, as observed by the memo tier.")
	mPutSeconds = telemetry.Default.NewHistogram("remote_put_seconds",
		"Remote write-back PUT span including retries.")
)

func init() {
	for o := 0; o < numGetOutcomes; o++ {
		mGets[o] = telemetry.Default.NewCounter("remote_gets_total",
			"Remote-tier GETs by outcome. Everything except hit degrades to a local miss.",
			telemetry.Label{Key: "outcome", Value: getOutcomeNames[o]})
	}
	for o := 0; o < numPutOutcomes; o++ {
		mPuts[o] = telemetry.Default.NewCounter("remote_puts_total",
			"Asynchronous write-back PUTs by outcome.",
			telemetry.Label{Key: "outcome", Value: putOutcomeNames[o]})
	}
}

// Server-side request outcomes (labcached), remote_server_requests_total.
const (
	srvGetHit = iota
	srvGetMiss
	srvGetNotModified
	srvGetSchemaMiss
	srvPutStored
	srvPutExists
	srvPutSchemaMiss
	srvBadRequest
	srvError
	srvUnauthorized // bearer token missing or wrong: 401, nothing served
	numSrvOutcomes
)

var srvOutcomeNames = [numSrvOutcomes]struct{ op, outcome string }{
	{"get", "hit"}, {"get", "miss"}, {"get", "not_modified"}, {"get", "schema_mismatch"},
	{"put", "stored"}, {"put", "exists"}, {"put", "schema_mismatch"},
	{"any", "bad_request"}, {"any", "error"}, {"any", "unauthorized"},
}

var mSrvRequests [numSrvOutcomes]*telemetry.Counter

func init() {
	for o := 0; o < numSrvOutcomes; o++ {
		mSrvRequests[o] = telemetry.Default.NewCounter("remote_server_requests_total",
			"Cell requests served by labcached, by verb and outcome.",
			telemetry.Label{Key: "op", Value: srvOutcomeNames[o].op},
			telemetry.Label{Key: "outcome", Value: srvOutcomeNames[o].outcome})
	}
}
