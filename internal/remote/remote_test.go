package remote

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activemem/internal/faultnet"
	"activemem/internal/store"
)

const testSchema = "test-schema-v1"

// newServer serves a fresh writable store over the cell protocol.
func newServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewHandler(st))
	t.Cleanup(srv.Close)
	return srv, st
}

// countingHandler wraps h, counting requests.
func countingHandler(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	})
}

// newClient builds a test client: no retries, fast backoff, and a breaker
// too patient to interfere — tests that exercise retries or the breaker
// override through mod.
func newClient(t *testing.T, baseURL string, mod func(*Options)) *Client {
	t.Helper()
	o := Options{
		BaseURL:          baseURL,
		Schema:           testSchema,
		Timeout:          5 * time.Second,
		Retries:          -1, // no retries
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 1000,
		BreakerCooldown:  time.Minute,
		DrainTimeout:     5 * time.Second,
	}
	if mod != nil {
		mod(&o)
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestConditionalRequestSemantics pins the wire protocol: a warm GET
// carries a strong ETag and verifying checksum, a revalidation with
// If-None-Match answers 304 with no body, a schema mismatch answers 412,
// and a PUT without a valid checksum dies at the door.
func TestConditionalRequestSemantics(t *testing.T) {
	srv, st := newServer(t)
	const key = "cafe01"
	payload := []byte("cell-payload-bytes")
	if _, err := st.Put(key, "core.Metrics", payload); err != nil {
		t.Fatal(err)
	}
	cellURL := srv.URL + CellPathPrefix + key

	// Cold conditional-free GET: 200 with the full validator set.
	resp, err := http.Get(cellURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(payload) {
		t.Fatalf("GET = %d %q", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if want := ETagFor(key, testSchema); etag != want {
		t.Fatalf("ETag = %q, want %q", etag, want)
	}
	if got := resp.Header.Get(HeaderType); got != "core.Metrics" {
		t.Fatalf("%s = %q", HeaderType, got)
	}
	if !ChecksumMatches(resp.Header.Get(HeaderChecksum), payload) {
		t.Fatalf("checksum header %q does not verify", resp.Header.Get(HeaderChecksum))
	}
	if !strings.Contains(resp.Header.Get("Cache-Control"), "immutable") {
		t.Fatalf("Cache-Control = %q, want immutable", resp.Header.Get("Cache-Control"))
	}

	// Warm revalidation: 304, no body, for the exact ETag, a W/-prefixed
	// variant, a list, and the wildcard.
	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		req, _ := http.NewRequest(http.MethodGet, cellURL, nil)
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q: got %d with %d body bytes, want 304 empty",
				inm, resp.StatusCode, len(body))
		}
	}

	// Schema negotiation: a peer of another generation gets 412 and the
	// server's schema, never the payload.
	req, _ := http.NewRequest(http.MethodGet, cellURL, nil)
	req.Header.Set(HeaderSchema, "other-schema-v9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("wrong-schema GET = %d, want 412", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderSchema); got != testSchema {
		t.Fatalf("412 schema header = %q, want %q", got, testSchema)
	}

	// Absent key: 404.
	resp, err = http.Get(srv.URL + CellPathPrefix + "feedbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent GET = %d, want 404", resp.StatusCode)
	}

	// PUT without a checksum, and with a lying one: rejected, not stored.
	for _, sum := range []string{"", Checksum([]byte("not-the-payload"))} {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+CellPathPrefix+"badput",
			strings.NewReader("data"))
		req.Header.Set(HeaderSchema, testSchema)
		req.Header.Set(HeaderType, "t")
		if sum != "" {
			req.Header.Set(HeaderChecksum, sum)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unverified PUT = %d, want 400", resp.StatusCode)
		}
	}
	if _, _, ok := st.Get("badput"); ok {
		t.Fatal("unverified PUT reached the store")
	}

	// Valid PUT: 201 on first store, 200 on replay.
	doPut := func() int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+CellPathPrefix+"goodput",
			strings.NewReader("data"))
		req.Header.Set(HeaderSchema, testSchema)
		req.Header.Set(HeaderType, "t")
		req.Header.Set(HeaderChecksum, Checksum([]byte("data")))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := doPut(); got != http.StatusCreated {
		t.Fatalf("first PUT = %d, want 201", got)
	}
	if got := doPut(); got != http.StatusOK {
		t.Fatalf("replayed PUT = %d, want 200", got)
	}
}

func TestClientHitMissAndWriteBack(t *testing.T) {
	srv, st := newServer(t)
	c := newClient(t, srv.URL, nil)

	if _, _, ok := c.Get("absent"); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	c.PutAsync("k1", "t", []byte("v1"))
	c.Close() // drains the write-back queue
	if typ, p, ok := st.Get("k1"); !ok || typ != "t" || string(p) != "v1" {
		t.Fatalf("write-back missing from store: (%q, %q, %v)", typ, p, ok)
	}
	s := c.Stats()
	if s.Misses != 1 || s.PutsStored != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 stored put", s)
	}

	c2 := newClient(t, srv.URL, nil)
	typ, p, ok := c2.Get("k1")
	if !ok || typ != "t" || string(p) != "v1" {
		t.Fatalf("Get after write-back = (%q, %q, %v)", typ, p, ok)
	}
	c2.PutAsync("k1", "t", []byte("v1")) // replay: server answers 200
	c2.Close()
	if s := c2.Stats(); s.Hits != 1 || s.PutsExists != 1 {
		t.Fatalf("second client stats = %+v, want 1 hit and 1 exists-put", s)
	}
}

// TestCloseAccountsForEveryWriteBack: against a server that stops
// answering after its first PUT, Close gives up at DrainTimeout, and the
// write-backs it abandons — the one in flight and those still queued —
// count as dropped, like queue-full drops; oversized and post-Close
// write-backs count as shed. Once Close returns, the outcome counters sum
// to the write-backs issued, so the epilogue's warning sees every record
// that never reached the server.
func TestCloseAccountsForEveryWriteBack(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := NewHandler(st)
	release := make(chan struct{})
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) > 1 {
			<-release
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs before srv.Close
	c := newClient(t, srv.URL, func(o *Options) {
		o.DrainTimeout = 50 * time.Millisecond
		o.PutQueue = 4
	})

	issued := 0
	if !c.Put("k0", "t", []byte("v0")) {
		t.Fatal("first PUT not stored")
	}
	issued++
	const async = 8
	for i := 1; i <= async; i++ {
		c.PutAsync(fmt.Sprintf("k%d", i), "t", []byte("v"))
		issued++
	}
	oversized := strings.Repeat("k", MaxKeyLen+1)
	c.PutAsync(oversized, "t", []byte("v"))
	issued++
	if c.Put(oversized, "t", []byte("v")) {
		t.Fatal("oversized PUT reported stored")
	}
	issued++

	start := time.Now()
	c.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v against a blocked server, want about DrainTimeout", d)
	}
	c.PutAsync("late", "t", []byte("v"))
	issued++

	s := c.Stats()
	sum := s.PutsStored + s.PutsExists + s.PutErrors + s.PutsDropped + s.PutsShed
	if sum != uint64(issued) {
		t.Fatalf("stats = %+v: outcomes sum to %d, want %d write-backs", s, sum, issued)
	}
	if s.PutsStored != 1 || s.PutsDropped != async || s.PutsShed != 3 || s.PutQueueDepth != 0 {
		t.Fatalf("stats = %+v, want 1 stored, %d dropped, 3 shed, empty queue", s, async)
	}
}

func TestClientRetries5xxThenSucceeds(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Put("k", "t", []byte("v")); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, func(o *Options) { o.Retries = 2 })
	typ, p, ok := c.Get("k")
	if !ok || typ != "t" || string(p) != "v" {
		t.Fatalf("Get through transient 5xx = (%q, %q, %v)", typ, p, ok)
	}
	if s := c.Stats(); s.Retries != 2 || s.Hits != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 1 hit", s)
	}
}

// A body whose checksum header lies is a counted miss and is never
// retried: the payload arrived intact at the transport level, so the
// server (or a middlebox) is sick, and asking again cannot help.
func TestCorruptBodyIsCountedMissNeverRetried(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		w.Header().Set(HeaderType, "t")
		w.Header().Set(HeaderChecksum, Checksum([]byte("something else")))
		w.Write([]byte("payload"))
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, func(o *Options) { o.Retries = 3 })
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("corrupt body reported as a hit")
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry on corrupt)", got)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 corrupt, 0 retries", s)
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	srv, st := newServer(t)
	if _, err := st.Put("k", "t", []byte("v")); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(srv.URL, faultnet.Always(faultnet.Fault{Kind: faultnet.Err5xx}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := newClient(t, proxy.URL(), func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = 100 * time.Millisecond
	})
	for i := 0; i < 2; i++ {
		if _, _, ok := c.Get("k"); ok {
			t.Fatal("Get through 100% 5xx reported a hit")
		}
	}
	s := c.Stats()
	if s.BreakerState != BreakerOpen || s.BreakerOpens != 1 || s.Errors != 2 {
		t.Fatalf("after 2 failures: %+v, want open breaker", s)
	}

	// Open breaker: the next Get fast-fails locally, no request reaches
	// the proxy.
	before := proxy.Requests()
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("fast-fail reported a hit")
	}
	if got := proxy.Requests(); got != before {
		t.Fatalf("open breaker let a request through (%d -> %d)", before, got)
	}
	if s := c.Stats(); s.BreakerFastFails != 1 {
		t.Fatalf("stats = %+v, want 1 fast fail", s)
	}

	// Heal the link, wait out the cooldown: the half-open probe succeeds
	// and closes the breaker.
	proxy.SetDecider(faultnet.Healthy())
	time.Sleep(150 * time.Millisecond)
	if typ, p, ok := c.Get("k"); !ok || typ != "t" || string(p) != "v" {
		t.Fatalf("probe Get = (%q, %q, %v), want hit", typ, p, ok)
	}
	if s := c.Stats(); s.BreakerState != BreakerClosed {
		t.Fatalf("after probe: %+v, want closed breaker", s)
	}
}

func TestSingleflightCollapsesConcurrentGets(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Put("k", "t", []byte("v")); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(st)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		time.Sleep(200 * time.Millisecond) // hold the flight open
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			typ, p, ok := c.Get("k")
			if !ok || typ != "t" || string(p) != "v" {
				errs <- fmt.Errorf("Get = (%q, %q, %v)", typ, p, ok)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("server saw %d requests for one key, want 1", got)
	}
	if s := c.Stats(); s.SingleflightHits != goroutines-1 {
		t.Fatalf("stats = %+v, want %d singleflight hits", s, goroutines-1)
	}
}

func TestSchemaMismatchDisablesTier(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Schema: "other-schema-v9"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n atomic.Int64
	srv := httptest.NewServer(countingHandler(NewHandler(st), &n))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("cross-schema Get reported a hit")
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
	// The tier is now disabled for the process: no further request leaves.
	if _, _, ok := c.Get("k2"); ok {
		t.Fatal("disabled tier reported a hit")
	}
	c.PutAsync("k3", "t", []byte("v"))
	c.Close()
	if got := n.Load(); got != 1 {
		t.Fatalf("disabled tier still sent requests (%d total)", got)
	}
	if s := c.Stats(); s.SchemaMismatches != 2 {
		t.Fatalf("stats = %+v, want 2 schema mismatches", s)
	}
}

func TestTornBodyRetriesToSuccess(t *testing.T) {
	srv, st := newServer(t)
	if _, err := st.Put("k", "t", []byte("a-payload-long-enough-to-tear")); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(srv.URL, faultnet.Script(faultnet.Fault{Kind: faultnet.TornBody}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := newClient(t, proxy.URL(), func(o *Options) { o.Retries = 1 })
	typ, p, ok := c.Get("k")
	if !ok || typ != "t" || string(p) != "a-payload-long-enough-to-tear" {
		t.Fatalf("Get through torn body = (%q, %q, %v)", typ, p, ok)
	}
	if s := c.Stats(); s.Retries != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 retry then 1 hit", s)
	}
	if proxy.Injected(faultnet.TornBody) != 1 {
		t.Fatalf("proxy injected %d torn bodies, want 1", proxy.Injected(faultnet.TornBody))
	}
}

// A blackholed server can stall a Get for at most the per-attempt
// deadline budget; the call comes back a miss, never hangs.
func TestBlackholeBoundedByDeadline(t *testing.T) {
	srv, _ := newServer(t)
	proxy, err := faultnet.New(srv.URL, faultnet.Always(faultnet.Fault{Kind: faultnet.Blackhole}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := newClient(t, proxy.URL(), func(o *Options) { o.Timeout = 100 * time.Millisecond })
	start := time.Now()
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("blackholed Get reported a hit")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("blackholed Get took %v, want ≈ the 100ms deadline", elapsed)
	}
	if s := c.Stats(); s.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", s)
	}
}

// Race coverage: concurrent same-key and cross-key Gets and PutAsyncs
// while the link flaps and the breaker cycles through its states.
func TestConcurrentAccessUnderFlappingLink(t *testing.T) {
	srv, st := newServer(t)
	for i := 0; i < 4; i++ {
		if _, err := st.Put(fmt.Sprintf("k%d", i), "t", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Every third request errors: enough failures to open the breaker
	// repeatedly, enough successes to close it again.
	flaky := faultnet.Decider(func(n int, _ *http.Request) faultnet.Fault {
		if n%3 == 2 {
			return faultnet.Fault{Kind: faultnet.Err5xx}
		}
		return faultnet.Fault{Kind: faultnet.Pass}
	})
	proxy, err := faultnet.New(srv.URL, flaky)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := newClient(t, proxy.URL(), func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Millisecond
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c.Get(fmt.Sprintf("k%d", i%4))
				if i%5 == 0 {
					c.PutAsync(fmt.Sprintf("p%d-%d", g, i), "t", []byte("w"))
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()
	s := c.Stats()
	if s.Gets != 200 {
		t.Fatalf("stats = %+v, want 200 gets accounted", s)
	}
}

func TestOptionsFromEnv(t *testing.T) {
	t.Setenv("ACTIVEMEM_REMOTE_TIMEOUT", "250ms")
	t.Setenv("ACTIVEMEM_REMOTE_RETRIES", "0")
	t.Setenv("ACTIVEMEM_REMOTE_BREAKER_THRESHOLD", "7")
	t.Setenv("ACTIVEMEM_REMOTE_BREAKER_COOLDOWN", "3s")
	o := OptionsFromEnv("127.0.0.1:9", testSchema)
	o.withDefaults()
	if o.Timeout != 250*time.Millisecond || o.Retries != 0 ||
		o.BreakerThreshold != 7 || o.BreakerCooldown != 3*time.Second {
		t.Fatalf("env options = %+v", o)
	}
}

func TestNewRejectsMalformedURL(t *testing.T) {
	for _, bad := range []string{"", "ftp://host", "http://"} {
		if _, err := New(Options{BaseURL: bad, Schema: testSchema}); err == nil {
			t.Errorf("New(%q) accepted a malformed URL", bad)
		}
	}
	c, err := New(Options{BaseURL: "127.0.0.1:8344", Schema: testSchema})
	if err != nil {
		t.Fatalf("bare host:port rejected: %v", err)
	}
	if c.BaseURL() != "http://127.0.0.1:8344" {
		t.Fatalf("BaseURL = %q", c.BaseURL())
	}
	c.Close()
}
