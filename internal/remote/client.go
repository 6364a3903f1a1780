// The client half of the remote memo tier. Every public entry point is
// infallible by design: Get answers (typeName, payload, ok) and PutAsync
// answers nothing, because the only correct reaction to any remote
// failure is a local cache miss. The failure modes are contained by
// four mechanisms, outermost first:
//
//   - single-flight: concurrent fetches of one key collapse into one
//     request; waiters share the verified payload.
//   - circuit breaker: consecutive failed calls open it, after which
//     requests fast-fail locally until a cooldown and a half-open probe.
//   - bounded retries: idempotent GETs (and connection-level PUT
//     failures, where the request provably never changed server state)
//     retry with exponential backoff plus jitter; everything else fails
//     the call immediately.
//   - per-attempt deadlines: no request, however stalled the server,
//     holds a cell longer than Timeout × (1 + Retries) plus backoff.
//
// Bodies are verified against their CRC-32 header before anything may
// decode them — a corrupt payload is a counted miss, never a result —
// and a 412 schema mismatch disables the tier for the process lifetime
// (one warning, then silence: a wrong-generation cache is useless, not
// retryable). Write-back runs on a background worker behind a bounded
// queue that drops when full; a slow server sheds write-back load
// instead of back-pressuring the campaign.

package remote

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activemem/internal/telemetry"
)

// Options parameterises a Client. The zero value of every tuning field
// selects the default documented on it; BaseURL and Schema are required.
type Options struct {
	// BaseURL locates the labcached server, e.g. "http://10.0.0.7:8344".
	// A bare host:port is accepted and assumed http.
	BaseURL string
	// Schema is the result-schema generation this process speaks
	// (lab.ResultSchemaVersion). Sent on every request; a server that
	// disagrees answers 412 and the tier disables itself.
	Schema string

	// Timeout bounds each request attempt (default 2s). This is the
	// client's deadline budget: no cell ever waits on the remote tier
	// longer than Timeout×(1+Retries) plus backoff sleeps.
	Timeout time.Duration
	// Retries is the number of re-attempts after a retryable failure
	// (default 2). Only idempotent GETs and connection-level PUT failures
	// retry.
	Retries int
	// BackoffBase/BackoffMax shape the exponential backoff between
	// retries (defaults 50ms and 1s); each sleep is jittered in
	// [d/2, d].
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// BreakerThreshold is the number of consecutive failed calls that
	// open the circuit breaker (default 3). BreakerCooldown is how long
	// it stays open before a half-open probe (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// PutQueue bounds the asynchronous write-back queue (default 256
	// results); when full, further write-backs are counted and dropped.
	PutQueue int
	// DrainTimeout bounds how long Close waits for queued write-backs
	// (default 2s).
	DrainTimeout time.Duration

	// AuthToken, when non-empty, is sent as a bearer token on every
	// request (the server's -auth-token shared secret). A 401 answer
	// disables the tier for the process lifetime with one warning, like a
	// schema mismatch: a server that rejects our credential can never
	// serve us a byte.
	AuthToken string
}

func (o *Options) withDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.PutQueue <= 0 {
		o.PutQueue = 256
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 2 * time.Second
	}
}

// OptionsFromEnv builds Options for baseURL and schema, letting the
// environment override the tuning knobs:
//
//	ACTIVEMEM_REMOTE_TIMEOUT            per-attempt deadline (Go duration)
//	ACTIVEMEM_REMOTE_RETRIES            re-attempts after a retryable failure
//	ACTIVEMEM_REMOTE_BREAKER_THRESHOLD  consecutive failures that open the breaker
//	ACTIVEMEM_REMOTE_BREAKER_COOLDOWN   open duration before a probe (Go duration)
//	ACTIVEMEM_CACHE_TOKEN               shared-secret bearer token
//
// Unset or unparsable variables keep the defaults.
func OptionsFromEnv(baseURL, schema string) Options {
	o := Options{BaseURL: baseURL, Schema: schema, AuthToken: TokenFromEnv()}
	if d, err := time.ParseDuration(os.Getenv("ACTIVEMEM_REMOTE_TIMEOUT")); err == nil && d > 0 {
		o.Timeout = d
	}
	if n, err := strconv.Atoi(os.Getenv("ACTIVEMEM_REMOTE_RETRIES")); err == nil && n >= 0 {
		o.Retries = n
		if n == 0 {
			o.Retries = -1 // withDefaults maps 0 to the default; -1 means "no retries"
		}
	}
	if n, err := strconv.Atoi(os.Getenv("ACTIVEMEM_REMOTE_BREAKER_THRESHOLD")); err == nil && n > 0 {
		o.BreakerThreshold = n
	}
	if d, err := time.ParseDuration(os.Getenv("ACTIVEMEM_REMOTE_BREAKER_COOLDOWN")); err == nil && d > 0 {
		o.BreakerCooldown = d
	}
	return o
}

// Client is a fault-tolerant handle on one labcached server. Safe for
// concurrent use by any number of executor workers.
type Client struct {
	base   string
	schema string
	opts   Options
	hc     *http.Client
	br     *Breaker

	flightMu sync.Mutex
	flight   map[string]*flightCall

	putCh     chan putJob
	drainReq  chan struct{}
	drainDone chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once
	// abort is cancelled when Close gives up draining: the write-back in
	// flight fails fast and every one still queued is counted as dropped.
	abort     context.Context
	abortPuts context.CancelFunc

	schemaBad atomic.Bool
	warnOnce  sync.Once
	authBad   atomic.Bool
	authOnce  sync.Once

	// Per-client counters backing Stats (the /metrics families in
	// metrics.go are process-wide and aggregate across clients).
	nGets, nHits, nMisses, nNotMod   atomic.Uint64
	nErrors, nCorrupt, nSchemaMiss   atomic.Uint64
	nFastFails, nRetries             atomic.Uint64
	nPuts                            [numPutOutcomes]atomic.Uint64
	nSingleflightShared, nQueueDepth atomic.Int64
}

type flightCall struct {
	done     chan struct{}
	typeName string
	payload  []byte
	ok       bool
}

type putJob struct {
	key, typeName string
	payload       []byte
}

// New returns a client for the server at o.BaseURL. The only error is a
// malformed URL — everything that can go wrong at runtime degrades to
// cache misses instead.
func New(o Options) (*Client, error) {
	o.withDefaults()
	base := o.BaseURL
	if base == "" {
		return nil, fmt.Errorf("remote: empty base URL")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("remote: invalid cache URL %q", o.BaseURL)
	}
	base = strings.TrimRight(base, "/")
	if o.Schema == "" {
		return nil, fmt.Errorf("remote: empty schema version")
	}
	c := &Client{
		base:   base,
		schema: o.Schema,
		opts:   o,
		// The transport-level timeout stays off: per-attempt contexts carry
		// the deadline so retries get a fresh budget each.
		hc:        &http.Client{},
		br:        newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		flight:    map[string]*flightCall{},
		putCh:     make(chan putJob, o.PutQueue),
		drainReq:  make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	c.abort, c.abortPuts = context.WithCancel(context.Background())
	go c.putWorker()
	return c, nil
}

// BaseURL returns the normalised server URL.
func (c *Client) BaseURL() string { return c.base }

// Get fetches key's record. A false report means "not available from the
// remote tier right now" for any reason — miss, dead server, timeout,
// open breaker, corrupt body, schema mismatch — and the caller computes.
// Concurrent Gets for the same key collapse into one request.
func (c *Client) Get(key string) (typeName string, payload []byte, ok bool) {
	if c == nil || c.closed.Load() {
		return "", nil, false
	}
	c.nGets.Add(1)
	if c.schemaBad.Load() || c.authBad.Load() {
		c.nSchemaMiss.Add(1)
		mGets[getSchemaMiss].Inc()
		return "", nil, false
	}

	c.flightMu.Lock()
	if f, dup := c.flight[key]; dup {
		c.flightMu.Unlock()
		c.nSingleflightShared.Add(1)
		<-f.done
		return f.typeName, f.payload, f.ok
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[key] = f
	c.flightMu.Unlock()

	f.typeName, f.payload, f.ok = c.getCall(key)

	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(f.done)
	return f.typeName, f.payload, f.ok
}

// Attempt outcomes.
const (
	outHit = iota
	outMiss
	outNotModified
	outSchemaMiss
	outUnauthorized // 401: credential rejected; the tier disables itself
	outCorrupt      // body arrived but cannot be trusted; retrying won't help
	outRetry        // connection-level failure, timeout, torn body, 5xx
	outFail         // unexpected but definitive answer (other 4xx)
)

// getCall runs one logical GET: breaker gate, attempt loop with backoff,
// outcome accounting.
func (c *Client) getCall(key string) (string, []byte, bool) {
	if !c.br.Allow() {
		c.nFastFails.Add(1)
		mGets[getBreakerOpen].Inc()
		return "", nil, false
	}
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	defer func() {
		if timed {
			mGetSeconds.Observe(telemetry.NowNs() - startNs)
		}
	}()
	for attempt := 0; ; attempt++ {
		typeName, payload, out := c.getOnce(key)
		switch out {
		case outHit:
			c.br.Success()
			c.nHits.Add(1)
			mGets[getHit].Inc()
			return typeName, payload, true
		case outMiss:
			c.br.Success() // the server answered; a cold cache is healthy
			c.nMisses.Add(1)
			mGets[getMiss].Inc()
			return "", nil, false
		case outNotModified:
			c.br.Success()
			c.nNotMod.Add(1)
			mGets[getNotModified].Inc()
			return "", nil, false
		case outSchemaMiss:
			c.br.Success()
			c.noteSchemaMismatch()
			c.nSchemaMiss.Add(1)
			mGets[getSchemaMiss].Inc()
			return "", nil, false
		case outUnauthorized:
			c.br.Success() // the server is healthy; our credential is not
			c.noteUnauthorized()
			c.nErrors.Add(1)
			mGets[getError].Inc()
			return "", nil, false
		case outCorrupt:
			c.br.Failure()
			c.nCorrupt.Add(1)
			mGets[getCorrupt].Inc()
			return "", nil, false
		case outFail:
			c.br.Failure()
			c.nErrors.Add(1)
			mGets[getError].Inc()
			return "", nil, false
		default: // outRetry
			if attempt >= c.opts.Retries {
				c.br.Failure()
				c.nErrors.Add(1)
				mGets[getError].Inc()
				return "", nil, false
			}
			c.nRetries.Add(1)
			mRetries.Inc()
			time.Sleep(c.backoff(attempt))
		}
	}
}

// getOnce performs one GET attempt under its own deadline. ifNoneMatch
// threads the conditional-request validator for revalidation callers
// (and the protocol tests); the memo tier passes none.
func (c *Client) getOnce(key string) (string, []byte, int) {
	return c.getOnceConditional(key, "")
}

func (c *Client) getOnceConditional(key, ifNoneMatch string) (string, []byte, int) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+CellPathPrefix+key, nil)
	if err != nil {
		return "", nil, outFail
	}
	req.Header.Set(HeaderSchema, c.schema)
	if c.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", nil, outRetry // dial/timeout/reset: never reached a verdict
	}
	defer func() {
		// Drain a little so the connection can be reused, then close.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, MaxPayload+1))
		if err != nil {
			return "", nil, outRetry // torn body: connection died mid-transfer
		}
		if int64(len(body)) > MaxPayload {
			return "", nil, outCorrupt
		}
		if cl := resp.ContentLength; cl >= 0 && cl != int64(len(body)) {
			return "", nil, outRetry // short read the transport didn't flag
		}
		typeName := resp.Header.Get(HeaderType)
		if typeName == "" || !ChecksumMatches(resp.Header.Get(HeaderChecksum), body) {
			return "", nil, outCorrupt
		}
		return typeName, body, outHit
	case resp.StatusCode == http.StatusNotModified:
		return "", nil, outNotModified
	case resp.StatusCode == http.StatusNotFound:
		return "", nil, outMiss
	case resp.StatusCode == http.StatusPreconditionFailed:
		return "", nil, outSchemaMiss
	case resp.StatusCode == http.StatusUnauthorized:
		return "", nil, outUnauthorized
	case resp.StatusCode >= 500:
		return "", nil, outRetry
	default:
		return "", nil, outFail
	}
}

// PutAsync queues a computed record for best-effort write-back. It never
// blocks: a full queue drops the record and a closed, disabled or
// oversized write-back is shed — the result is already safe in the local
// tiers, the remote copy is an optimisation. Either way it is counted, so
// the epilogue can warn about every record that never reached the server.
func (c *Client) PutAsync(key, typeName string, payload []byte) {
	if c == nil {
		return
	}
	if c.refusesPut(key, payload) {
		c.countPut(putShed)
		return
	}
	select {
	case c.putCh <- putJob{key: key, typeName: typeName, payload: payload}:
		c.nQueueDepth.Add(1)
		mPutQueueDepth.Add(1)
	default:
		c.countPut(putDropped)
	}
}

// refusesPut reports whether the tier refuses a write-back up front: the
// client is closed, the tier disabled (schema mismatch or rejected token),
// or the record too large for the protocol.
func (c *Client) refusesPut(key string, payload []byte) bool {
	return c.closed.Load() || c.schemaBad.Load() || c.authBad.Load() ||
		len(payload) > MaxPayload || len(key) > MaxKeyLen
}

// countPut records one write-back outcome on the client's Stats counter
// and the process-wide instrument.
func (c *Client) countPut(outcome int) {
	c.nPuts[outcome].Add(1)
	mPuts[outcome].Inc()
}

// putWorker serialises write-backs. One worker is deliberate: write-back
// is a background optimisation and must never compete with the campaign
// for connections or CPU; the bounded queue plus drop-on-full absorbs
// bursts.
func (c *Client) putWorker() {
	for {
		select {
		case j := <-c.putCh:
			c.nQueueDepth.Add(-1)
			mPutQueueDepth.Add(-1)
			c.putCall(j)
		case <-c.drainReq:
			for {
				select {
				case j := <-c.putCh:
					c.nQueueDepth.Add(-1)
					mPutQueueDepth.Add(-1)
					c.putCall(j)
				default:
					close(c.drainDone)
					return
				}
			}
		}
	}
}

// Put writes one record synchronously and reports whether the server
// now holds it. Workers in a fleet use this to publish a computed cell
// before acking its lease — the ack must not race the write-back queue,
// or a peer told "done" could miss the bytes. Failures degrade to false;
// the caller's result is already safe in the local tiers.
func (c *Client) Put(key, typeName string, payload []byte) bool {
	if c == nil {
		return false
	}
	if c.refusesPut(key, payload) {
		c.countPut(putShed)
		return false
	}
	return c.putCall(putJob{key: key, typeName: typeName, payload: payload})
}

// putCall runs one logical PUT and reports whether the record is on the
// server (stored now or already present). Only connection-level failures
// retry: there the request provably never changed server state. (A PUT
// of a content-addressed record is idempotent anyway, but staying within
// the idempotency argument keeps the retry policy self-evidently safe.)
func (c *Client) putCall(j putJob) bool {
	if c.abort.Err() != nil {
		// Close gave up draining: the record is abandoned, not failed.
		c.countPut(putDropped)
		return false
	}
	if c.schemaBad.Load() || c.authBad.Load() || !c.br.Allow() {
		// Shed, not dropped: the record never entered the queue race — the
		// tier itself refused it (disabled or breaker-open).
		c.countPut(putShed)
		return false
	}
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	defer func() {
		if timed {
			mPutSeconds.Observe(telemetry.NowNs() - startNs)
		}
	}()
	for attempt := 0; ; attempt++ {
		out := c.putOnce(j)
		if out != outHit && out != outMiss && c.abort.Err() != nil {
			// Cancelled by Close's drain deadline, not refused by the server.
			c.countPut(putDropped)
			return false
		}
		switch out {
		case outHit: // 201 stored
			c.br.Success()
			c.countPut(putStored)
			return true
		case outMiss: // 200 already present
			c.br.Success()
			c.countPut(putExists)
			return true
		case outSchemaMiss:
			c.br.Success()
			c.noteSchemaMismatch()
			c.countPut(putError)
			return false
		case outUnauthorized:
			c.br.Success()
			c.noteUnauthorized()
			c.countPut(putError)
			return false
		case outFail:
			c.br.Failure()
			c.countPut(putError)
			return false
		default: // outRetry: connection-level only
			if attempt >= c.opts.Retries {
				c.br.Failure()
				c.countPut(putError)
				return false
			}
			c.nRetries.Add(1)
			mRetries.Inc()
			select {
			case <-time.After(c.backoff(attempt)):
			case <-c.abort.Done():
			}
		}
	}
}

// putOnce performs one PUT attempt under its own deadline.
func (c *Client) putOnce(j putJob) int {
	ctx, cancel := context.WithTimeout(c.abort, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+CellPathPrefix+j.key, strings.NewReader(string(j.payload)))
	if err != nil {
		return outFail
	}
	req.ContentLength = int64(len(j.payload))
	req.Header.Set(HeaderSchema, c.schema)
	req.Header.Set(HeaderType, j.typeName)
	req.Header.Set(HeaderChecksum, Checksum(j.payload))
	if c.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outRetry
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusCreated:
		return outHit
	case resp.StatusCode == http.StatusOK:
		return outMiss
	case resp.StatusCode == http.StatusPreconditionFailed:
		return outSchemaMiss
	case resp.StatusCode == http.StatusUnauthorized:
		return outUnauthorized
	case resp.StatusCode >= 500:
		// The server answered, so the transport worked; but a 5xx PUT may
		// or may not have been applied. Content addressing makes a replay
		// harmless, yet the bounded-retry budget is better spent on reads —
		// fail the write-back, the next campaign will offer the record again.
		return outFail
	default:
		return outFail
	}
}

// backoff returns the jittered exponential delay before retry attempt+1.
func (c *Client) backoff(attempt int) time.Duration {
	return JitteredBackoff(c.opts.BackoffBase, c.opts.BackoffMax, attempt)
}

// JitteredBackoff returns the delay before retry attempt+1 of an
// exponential-backoff schedule: base<<attempt capped at max, jittered on
// the upper half ([d/2, d]) so a fleet of workers retrying against one
// recovering server never synchronises into thundering herds. Shared by
// this client and the fleet coordinator client.
func JitteredBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d/2+1)
}

// noteSchemaMismatch disables the tier for the process lifetime and warns
// once. A server of another schema generation can never serve this
// process a usable byte, so further requests would be pure overhead.
func (c *Client) noteSchemaMismatch() {
	if c.schemaBad.CompareAndSwap(false, true) {
		c.warnOnce.Do(func() {
			fmt.Fprintf(os.Stderr,
				"remote: cache at %s speaks a different result-schema generation than %q; remote tier disabled for this run\n",
				c.base, c.schema)
		})
	}
}

// noteUnauthorized disables the tier for the process lifetime and warns
// once, mirroring noteSchemaMismatch: a server that rejects this
// process's credential will reject every request, so further traffic is
// pure overhead (and noise in the server's 401 counter).
func (c *Client) noteUnauthorized() {
	if c.authBad.CompareAndSwap(false, true) {
		c.authOnce.Do(func() {
			fmt.Fprintf(os.Stderr,
				"remote: cache at %s rejected our auth token (401); remote tier disabled for this run\n",
				c.base)
		})
	}
}

// Close drains queued write-backs (bounded by DrainTimeout) and releases
// connections. At the deadline the write-back in flight is cancelled and
// the rest of the queue is counted as dropped, so once Close returns
// Stats accounts for every write-back issued: stored, already present,
// failed, dropped or shed. Get/PutAsync on a closed client are safe
// no-ops (a write-back counts as shed).
func (c *Client) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.drainReq)
		select {
		case <-c.drainDone:
		case <-time.After(c.opts.DrainTimeout):
			c.abortPuts()
			<-c.drainDone
		}
		c.abortPuts()
		c.hc.CloseIdleConnections()
	})
}

// Stats is a snapshot of the client's counters, served on /statusz and
// printed in the CLIs' cache epilogue.
type Stats struct {
	Gets             uint64 `json:"gets"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	NotModified      uint64 `json:"not_modified,omitempty"`
	Errors           uint64 `json:"errors"`
	Corrupt          uint64 `json:"corrupt"`
	SchemaMismatches uint64 `json:"schema_mismatches"`
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	Retries          uint64 `json:"retries"`
	BreakerOpens     uint64 `json:"breaker_opens"`
	BreakerState     int    `json:"breaker_state"`
	SingleflightHits int64  `json:"singleflight_hits"`
	PutsStored       uint64 `json:"puts_stored"`
	PutsExists       uint64 `json:"puts_exists"`
	PutErrors        uint64 `json:"put_errors"`
	PutsDropped      uint64 `json:"puts_dropped"`
	PutsShed         uint64 `json:"puts_shed"`
	PutQueueDepth    int64  `json:"put_queue_depth"`
}

// Stats returns a snapshot of the client's activity.
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Gets:             c.nGets.Load(),
		Hits:             c.nHits.Load(),
		Misses:           c.nMisses.Load(),
		NotModified:      c.nNotMod.Load(),
		Errors:           c.nErrors.Load(),
		Corrupt:          c.nCorrupt.Load(),
		SchemaMismatches: c.nSchemaMiss.Load(),
		BreakerFastFails: c.nFastFails.Load(),
		Retries:          c.nRetries.Load(),
		BreakerOpens:     c.br.Opens(),
		BreakerState:     c.br.State(),
		SingleflightHits: c.nSingleflightShared.Load(),
		PutsStored:       c.nPuts[putStored].Load(),
		PutsExists:       c.nPuts[putExists].Load(),
		PutErrors:        c.nPuts[putError].Load(),
		PutsDropped:      c.nPuts[putDropped].Load(),
		PutsShed:         c.nPuts[putShed].Load(),
		PutQueueDepth:    c.nQueueDepth.Load(),
	}
}
