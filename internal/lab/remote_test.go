// Campaign-level fault injection for the remote memo tier: whatever the
// server does — absent, killed mid-campaign, erroring, stalling, or
// corrupting — a campaign completes with results bit-identical to a
// no-remote run, and the degradation is visible in the stats rather than
// in the science.
package lab

import (
	"errors"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"activemem/internal/faultnet"
	"activemem/internal/remote"
	"activemem/internal/store"
)

// campaignCell is the deterministic "simulation" the fault campaigns
// memoize; the float fields make bit-identity a real claim.
func campaignCell(i int) cacheResult {
	return cacheResult{A: i, B: float64(i) * 0.1, C: []float64{float64(i) * 1.5, 0.1 + 0.2}}
}

// runCampaign resolves cells experiment cells through ex, in order.
func runCampaign(t *testing.T, ex *Executor, cells int) []cacheResult {
	t.Helper()
	out := make([]cacheResult, cells)
	for i := 0; i < cells; i++ {
		v, err := Memo(ex, KeyOf("remote-fault-cell", i), func() (cacheResult, error) {
			return campaignCell(i), nil
		})
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out[i] = v
	}
	return out
}

// wantIdentical asserts two campaign outcomes match to the float bit.
func wantIdentical(t *testing.T, got, want []cacheResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("campaign sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.A == w.A && math.Float64bits(g.B) == math.Float64bits(w.B) &&
			len(g.C) == len(w.C)
		if same {
			for j := range g.C {
				if math.Float64bits(g.C[j]) != math.Float64bits(w.C[j]) {
					same = false
				}
			}
		}
		if !same {
			t.Fatalf("cell %d diverged: %+v vs %+v", i, g, w)
		}
	}
}

// baseline runs the campaign with no cache tiers at all.
func baseline(t *testing.T, cells int) []cacheResult {
	t.Helper()
	return runCampaign(t, New(Config{Workers: 1}), cells)
}

// startCacheServer serves a fresh store over the cell protocol.
func startCacheServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Schema: ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(remote.NewHandler(st))
	return srv, st
}

// newRemoteClient builds a fast-failing test client against url.
func newRemoteClient(t *testing.T, url string, mod func(*remote.Options)) *remote.Client {
	t.Helper()
	o := remote.Options{
		BaseURL:          url,
		Schema:           ResultSchemaVersion,
		Timeout:          2 * time.Second,
		Retries:          -1, // none
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		BreakerThreshold: 1000,
		BreakerCooldown:  time.Minute,
		DrainTimeout:     5 * time.Second,
	}
	if mod != nil {
		mod(&o)
	}
	c, err := remote.New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// populate computes the campaign once through a write-back client so the
// server store holds every cell, then drains.
func populate(t *testing.T, srvURL string, cells int) {
	t.Helper()
	c := newRemoteClient(t, srvURL, nil)
	ex := New(Config{Workers: 1, Remote: c})
	runCampaign(t, ex, cells)
	c.Close()
}

// The remote tier end to end: one process computes and writes back, a
// second process (no local cache at all) serves everything remotely.
func TestRemoteTierRoundTrip(t *testing.T) {
	const cells = 8
	srv, st := startCacheServer(t)
	defer srv.Close()
	want := baseline(t, cells)

	cA := newRemoteClient(t, srv.URL, nil)
	exA := New(Config{Workers: 1, Remote: cA})
	gotA := runCampaign(t, exA, cells)
	wantIdentical(t, gotA, want)
	if s := exA.Stats(); s.Computed != cells || s.RemoteHits != 0 {
		t.Fatalf("cold stats = %+v", s)
	}
	cA.Close() // drain write-backs
	if st.Len() != cells {
		t.Fatalf("server store holds %d cells, want %d", st.Len(), cells)
	}

	cB := newRemoteClient(t, srv.URL, nil)
	exB := New(Config{Workers: 1, Remote: cB})
	gotB := runCampaign(t, exB, cells)
	wantIdentical(t, gotB, want)
	if s := exB.Stats(); s.Computed != 0 || s.RemoteHits != cells {
		t.Fatalf("warm stats = %+v, want %d remote hits", s, cells)
	}
	if sum := exB.CacheSummary(); sum != "cache: computed=0 disk_hits=0 mem_hits=0 persisted=0 remote_hits=8" {
		t.Fatalf("CacheSummary = %q", sum)
	}
}

// A remote hit writes through to the local store: the next process on the
// same cache directory never crosses the network again.
func TestRemoteHitWritesThroughToLocalStore(t *testing.T) {
	const cells = 6
	srv, _ := startCacheServer(t)
	defer srv.Close()
	want := baseline(t, cells)
	populate(t, srv.URL, cells)

	dir := t.TempDir()
	stC := openStore(t, dir)
	cC := newRemoteClient(t, srv.URL, nil)
	exC := New(Config{Workers: 1, Cache: stC, Remote: cC})
	wantIdentical(t, runCampaign(t, exC, cells), want)
	if s := exC.Stats(); s.RemoteHits != cells || s.Computed != 0 {
		t.Fatalf("remote-warm stats = %+v", s)
	}
	stC.Close()

	// Same directory, no remote: everything is local now.
	stD := openStore(t, dir)
	defer stD.Close()
	exD := New(Config{Workers: 1, Cache: stD})
	wantIdentical(t, runCampaign(t, exD, cells), want)
	if s := exD.Stats(); s.DiskHits != cells || s.Computed != 0 {
		t.Fatalf("local stats = %+v, want %d disk hits", s, cells)
	}
}

// Server down before the campaign starts: every lookup degrades to a
// computed cell, the breaker opens, the results don't change.
func TestCampaignCompletesWithServerDownAtStart(t *testing.T) {
	const cells = 10
	want := baseline(t, cells)

	// An address nothing listens on anymore.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	c := newRemoteClient(t, deadURL, func(o *remote.Options) {
		o.Timeout = 200 * time.Millisecond
		o.BreakerThreshold = 2
	})
	ex := New(Config{Workers: 1, Remote: c})
	wantIdentical(t, runCampaign(t, ex, cells), want)
	if s := ex.Stats(); s.Computed != cells || s.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want all %d computed", s, cells)
	}
	// The breaker counts failed GETs and failed async write-backs alike,
	// so it can open after one of each: assert on both counters.
	rs := c.Stats()
	if rs.Errors+rs.PutErrors < 2 || rs.BreakerOpens < 1 || rs.BreakerFastFails < 1 {
		t.Fatalf("degradation invisible: %+v", rs)
	}
}

// Server killed mid-campaign: cells already served stay served, the rest
// compute, and the combined run is bit-identical to a no-remote one.
func TestCampaignCompletesWhenServerKilledMidCampaign(t *testing.T) {
	const cells = 12
	const killAt = 5
	srv, _ := startCacheServer(t)
	killed := false
	defer func() {
		if !killed {
			srv.Close()
		}
	}()
	want := baseline(t, cells)
	populate(t, srv.URL, cells)

	c := newRemoteClient(t, srv.URL, func(o *remote.Options) {
		o.Timeout = 200 * time.Millisecond
		o.BreakerThreshold = 2
	})
	ex := New(Config{Workers: 1, Remote: c})
	got := make([]cacheResult, cells)
	for i := 0; i < cells; i++ {
		if i == killAt {
			srv.Close()
			killed = true
		}
		v, err := Memo(ex, KeyOf("remote-fault-cell", i), func() (cacheResult, error) {
			return campaignCell(i), nil
		})
		if err != nil {
			t.Fatalf("cell %d after kill: %v", i, err)
		}
		got[i] = v
	}
	wantIdentical(t, got, want)
	s := ex.Stats()
	if s.RemoteHits != killAt || s.Computed != cells-killAt {
		t.Fatalf("stats = %+v, want %d remote hits then %d computed", s, killAt, cells-killAt)
	}
	if rs := c.Stats(); rs.Errors < 1 {
		t.Fatalf("kill invisible in client stats: %+v", rs)
	}
}

// 100% 5xx: every call fails, the breaker opens, the campaign completes.
func TestCampaignCompletesUnder100Percent5xx(t *testing.T) {
	const cells = 10
	srv, _ := startCacheServer(t)
	defer srv.Close()
	want := baseline(t, cells)
	populate(t, srv.URL, cells)

	proxy, err := faultnet.New(srv.URL, faultnet.Always(faultnet.Fault{Kind: faultnet.Err5xx}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := newRemoteClient(t, proxy.URL(), func(o *remote.Options) { o.BreakerThreshold = 3 })
	ex := New(Config{Workers: 1, Remote: c})
	wantIdentical(t, runCampaign(t, ex, cells), want)
	if s := ex.Stats(); s.Computed != cells {
		t.Fatalf("stats = %+v, want all %d computed", s, cells)
	}
	rs := c.Stats()
	if rs.Errors+rs.BreakerFastFails != cells || rs.BreakerOpens < 1 {
		t.Fatalf("degradation accounting off: %+v", rs)
	}
}

// A server stalling 2s against a 250ms deadline: no cell waits past its
// deadline budget, the breaker sheds the rest, the campaign stays fast.
func TestCampaignBoundedUnderStallingServer(t *testing.T) {
	const cells = 12
	srv, _ := startCacheServer(t)
	defer srv.Close()
	want := baseline(t, cells)
	populate(t, srv.URL, cells)

	proxy, err := faultnet.New(srv.URL,
		faultnet.Always(faultnet.Fault{Kind: faultnet.Delay, Wait: 2 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := newRemoteClient(t, proxy.URL(), func(o *remote.Options) {
		o.Timeout = 250 * time.Millisecond
		o.BreakerThreshold = 3
	})
	ex := New(Config{Workers: 1, Remote: c})
	start := time.Now()
	wantIdentical(t, runCampaign(t, ex, cells), want)
	elapsed := time.Since(start)
	// Three 250ms deadline hits open the breaker; everything after
	// fast-fails locally. Generous bound: well under cells×2s.
	if elapsed > 5*time.Second {
		t.Fatalf("stalled server held the campaign for %v", elapsed)
	}
	rs := c.Stats()
	if rs.BreakerOpens < 1 || rs.BreakerFastFails < 1 {
		t.Fatalf("breaker never sheared the stalls: %+v", rs)
	}
	if s := ex.Stats(); s.Computed != cells {
		t.Fatalf("stats = %+v, want all %d computed", s, cells)
	}
}

// Corrupt bodies (checksum header intact, payload flipped): counted
// misses, never decoded, never in the results.
func TestCampaignCorruptBodiesAreMisses(t *testing.T) {
	const cells = 8
	srv, _ := startCacheServer(t)
	defer srv.Close()
	want := baseline(t, cells)
	populate(t, srv.URL, cells)

	proxy, err := faultnet.New(srv.URL, faultnet.Always(faultnet.Fault{Kind: faultnet.CorruptBody}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := newRemoteClient(t, proxy.URL(), nil) // breaker too patient to shed
	ex := New(Config{Workers: 1, Remote: c})
	wantIdentical(t, runCampaign(t, ex, cells), want)
	if s := ex.Stats(); s.Computed != cells || s.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want all %d computed", s, cells)
	}
	if rs := c.Stats(); rs.Corrupt != cells {
		t.Fatalf("client stats = %+v, want %d corrupt bodies counted", rs, cells)
	}
}

// Interrupt stops dispatching new cells; the batch unwinds with
// ErrInterrupted and cells that finished stay persisted.
func TestInterruptStopsDispatch(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	ex := New(Config{Workers: 1, Cache: st})
	var ran atomic.Int64
	err := ex.Run(10, func(i int) error {
		ran.Add(1)
		if _, err := Memo(ex, KeyOf("interrupt-cell", i), func() (float64, error) {
			return float64(i), nil
		}); err != nil {
			return err
		}
		if i == 3 {
			ex.Interrupt()
		}
		return nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run = %v, want ErrInterrupted", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d cells ran, want 4 (serial loop stops before cell 4)", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The finished cells resumed from disk by the next run.
	st2 := openStore(t, dir)
	defer st2.Close()
	ex2 := New(Config{Workers: 1, Cache: st2})
	for i := 0; i <= 3; i++ {
		v, err := Memo(ex2, KeyOf("interrupt-cell", i), func() (float64, error) {
			return -1, errors.New("must not recompute")
		})
		if err != nil || v != float64(i) {
			t.Fatalf("cell %d after resume = (%v, %v)", i, v, err)
		}
	}
	if s := ex2.Stats(); s.DiskHits != 4 {
		t.Fatalf("resume stats = %+v, want 4 disk hits", s)
	}

	// A parallel batch unwinds too (without pinning which cells ran).
	ex3 := New(Config{Workers: 4})
	err = ex3.Run(64, func(i int) error {
		if i == 5 {
			ex3.Interrupt()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("parallel Run = %v, want ErrInterrupted", err)
	}
}

// The campaign signal handler turns the first SIGTERM into Interrupt.
func TestNotifyShutdownInterruptsOnSignal(t *testing.T) {
	ex := New(Config{Workers: 1})
	stop := notifyShutdown(ex)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !ex.Interrupted() {
		if time.Now().After(deadline) {
			t.Fatal("SIGTERM did not interrupt the executor")
		}
		time.Sleep(time.Millisecond)
	}
}
