// Chaos suite for distributed campaigns: several executors share one
// coordinator + cache server and the campaign must complete with results
// bit-identical to a single-process, fleet-less baseline while workers
// crash (abandoned leases), stall (stolen cells), lose the coordinator
// (restart mid-campaign) or lose the network (faultnet partition). The
// suite is the executable form of the fleet's one invariant: a fleet can
// change a campaign's speed, never its bytes.
package lab

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activemem/internal/faultnet"
	"activemem/internal/fleet"
	"activemem/internal/remote"
	"activemem/internal/store"
)

// fleetMux mounts the cell protocol and the campaign protocol on one
// handler, exactly as labcached -coord does.
func fleetMux(st *store.Store, co *fleet.Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(remote.CellPathPrefix, remote.NewHandler(st))
	mux.Handle(fleet.PathPrefix, fleet.NewHandler(co))
	return mux
}

// startFleetServer serves a fresh store + coordinator; the returned swap
// function replaces the live handler (coordinator "restart").
func startFleetServer(t *testing.T, fo fleet.Options) (*httptest.Server, *fleet.Coordinator, *store.Store, func(http.Handler)) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Schema: ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	co := fleet.NewCoordinator(fo)
	var live atomic.Value
	live.Store(fleetMux(st, co))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, co, st, func(h http.Handler) { live.Store(h) }
}

// newFleetClient builds a fast-failing worker link against url.
func newFleetClient(t *testing.T, url, worker string, mod func(*fleet.ClientOptions)) *fleet.Client {
	t.Helper()
	o := fleet.ClientOptions{
		BaseURL:          url,
		Worker:           worker,
		Timeout:          2 * time.Second,
		Retries:          -1,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: 1000,
	}
	if mod != nil {
		mod(&o)
	}
	c, err := fleet.NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newWorker assembles one campaign worker: an executor with the given
// pool size whose remote tier and fleet link both point at srvURL, as
// -worker-of would build it.
func newWorker(t *testing.T, srvURL, name string, workers int) *Executor {
	t.Helper()
	rc := newRemoteClient(t, srvURL, nil)
	fc := newFleetClient(t, srvURL, name, nil)
	ex := New(Config{Workers: workers, Remote: rc, Fleet: fc})
	t.Cleanup(ex.Close)
	return ex
}

// runCampaignE is runCampaign for worker goroutines, where t.Fatal is
// off-limits.
func runCampaignE(ex *Executor, cells int) ([]cacheResult, error) {
	out := make([]cacheResult, cells)
	for i := 0; i < cells; i++ {
		v, err := Memo(ex, KeyOf("remote-fault-cell", i), func() (cacheResult, error) {
			return campaignCell(i), nil
		})
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// Three workers race one grid cell by cell, outside any batch — the
// blocking claim path. Every worker prints the full report and all of them
// are bit-identical to the fleet-less baseline, with each cell computed
// under exactly one accepted lease. (Outside a batch a worker told to wait
// blocks, so one worker may well lease every cell; TestFleetBatchSplitsWork
// checks the split.)
func TestFleetSerialCampaignLeasesEachCellOnce(t *testing.T) {
	const cells, workers = 12, 3
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	exs := make([]*Executor, workers)
	for w := range exs {
		exs[w] = newWorker(t, srv.URL, fmt.Sprintf("w%d", w), 2)
	}
	outs := make([][]cacheResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range exs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = runCampaignE(exs[w], cells)
		}(w)
	}
	wg.Wait()

	var leased, degraded uint64
	for w := range exs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		wantIdentical(t, outs[w], want)
		fs := exs[w].Fleet().Stats()
		leased += fs.Leased
		degraded += fs.Degraded
	}
	s := co.Status()
	if s.CellsDone != cells || s.Failed != 0 {
		t.Fatalf("coordinator status = %+v", s)
	}
	if leased != cells || degraded != 0 {
		t.Fatalf("leased = %d (want %d), degraded = %d (want 0)", leased, cells, degraded)
	}
}

// A worker crashes mid-cell: it claims a lease and goes silent — the
// in-process analog of SIGKILL, and exactly what Close leaves behind.
// The lease expires, the cell re-leases, and the survivor finishes the
// whole campaign bit-identically.
func TestFleetAbandonedLeaseIsReleased(t *testing.T) {
	const cells = 8
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 50 * time.Millisecond})
	want := baseline(t, cells)

	// The crasher leases cell 0 and never heartbeats, acks, or publishes.
	crasher := newFleetClient(t, srv.URL, "crasher", func(o *fleet.ClientOptions) {
		o.HeartbeatEvery = time.Hour
	})
	if d := crasher.Claim(string(KeyOf("remote-fault-cell", 0)), "chaos"); d.Action != fleet.ActionRun {
		t.Fatalf("crasher claim = %+v", d)
	}

	got, err := runCampaignE(newWorker(t, srv.URL, "survivor", 2), cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	s := co.Status()
	if s.Expired < 1 || s.Requeued < 1 {
		t.Fatalf("no expiry recorded: %+v", s)
	}
	if s.CellsDone != cells {
		t.Fatalf("status = %+v", s)
	}
	// The crasher's ghost ack — had the process survived to send it — is
	// rejected, so the cell still completed exactly once.
	if crasher.Done(string(KeyOf("remote-fault-cell", 0))) {
		t.Fatal("abandoned lease's late ack accepted")
	}
}

// A worker stalls but keeps heartbeating — alive, just stuck. Past
// StealAfter the cell is duplicated to a healthy worker; the staller's
// eventual ack is a counted late ack and the cell completes once.
func TestFleetStalledCellIsStolen(t *testing.T) {
	const cells = 6
	srv, co, _, _ := startFleetServer(t, fleet.Options{
		LeaseTTL:   100 * time.Millisecond,
		StealAfter: 150 * time.Millisecond,
	})
	want := baseline(t, cells)

	staller := newFleetClient(t, srv.URL, "staller", nil) // heartbeats at TTL/3
	if d := staller.Claim(string(KeyOf("remote-fault-cell", 0)), "chaos"); d.Action != fleet.ActionRun {
		t.Fatalf("staller claim = %+v", d)
	}

	got, err := runCampaignE(newWorker(t, srv.URL, "thief", 2), cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	s := co.Status()
	if s.Steals < 1 {
		t.Fatalf("no steal recorded: %+v", s)
	}
	if s.Expired != 0 {
		t.Fatalf("staller's lease expired despite heartbeats: %+v", s)
	}
	if s.CellsDone != cells {
		t.Fatalf("status = %+v", s)
	}
	// The staller finally "finishes": too late, the thief won.
	if staller.Done(string(KeyOf("remote-fault-cell", 0))) {
		t.Fatal("stolen cell acked twice")
	}
}

// The coordinator dies and restarts empty mid-campaign. Nothing is
// re-computed unnecessarily and nothing is lost: completed cells live in
// the shared cache, so the replacement coordinator only ever hears about
// the remainder.
func TestFleetCoordinatorRestartMidCampaign(t *testing.T) {
	const cells = 10
	srv, coA, st, swap := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	ex := newWorker(t, srv.URL, "w1", 2)
	firstHalf, err := runCampaignE(ex, cells/2)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, firstHalf, want[:cells/2])

	// Crash-replace the coordinator with a blank one. The cache store
	// must survive the restart (labcached persists it on disk); the
	// coordinator's in-memory state is the part that evaporates.
	coB := fleet.NewCoordinator(fleet.Options{LeaseTTL: 5 * time.Second})
	swap(fleetMux(st, coB))

	got, err := runCampaignE(ex, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	if sA, sB := coA.Status(), coB.Status(); sA.CellsDone != cells/2 || sB.CellsDone != cells-cells/2 {
		t.Fatalf("done split = %d + %d, want %d + %d", sA.CellsDone, sB.CellsDone, cells/2, cells-cells/2)
	}

	// A worker joining after the restart needs no leases at all: every
	// cell is a remote-tier hit, and the new coordinator never hears of
	// them.
	late := newWorker(t, srv.URL, "latecomer", 2)
	got2, err := runCampaignE(late, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got2, want)
	if fs := late.Fleet().Stats(); fs.Leased != 0 || fs.Degraded != 0 {
		t.Fatalf("latecomer stats = %+v, want no leases and no degradation", fs)
	}
}

// A worker's coordinator link partitions mid-campaign (faultnet
// blackhole); its cache link stays up. Claims degrade to solo compute
// and the campaign still completes bit-identically.
func TestFleetPartitionedWorkerRunsSolo(t *testing.T) {
	const cells = 8
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	want := baseline(t, cells)

	// The partition takes the fleet link only, after the third request.
	proxy, err := faultnet.New(srv.URL, faultnet.After(3, faultnet.Fault{Kind: faultnet.Drop}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	rc := newRemoteClient(t, srv.URL, nil) // cache link: direct, healthy
	fc := newFleetClient(t, proxy.URL(), "islander", func(o *fleet.ClientOptions) {
		o.Timeout = 200 * time.Millisecond
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
	})
	ex := New(Config{Workers: 2, Remote: rc, Fleet: fc})
	t.Cleanup(ex.Close)

	got, err := runCampaignE(ex, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, got, want)
	fs := fc.Stats()
	if fs.Degraded < 1 {
		t.Fatalf("no degraded claims through the partition: %+v", fs)
	}
	if fs.Leased+fs.Degraded < cells {
		t.Fatalf("cells unaccounted for: %+v", fs)
	}
	// Cells computed solo were still published through the healthy cache
	// link; only the coordinator's view is partial.
	if s := co.Status(); s.CellsDone > fs.Leased {
		t.Fatalf("coordinator saw more completions than leases: %+v vs %+v", s, fs)
	}
	sum := ex.FleetSummary()
	if sum == "" {
		t.Fatal("empty fleet summary")
	}
}

// runBatchE resolves the campaign's cells as one executor batch — the
// shape of every grid the experiment packages run — with each cell's
// compute taking cellTime.
func runBatchE(ex *Executor, cells int, cellTime time.Duration) ([]cacheResult, error) {
	out := make([]cacheResult, cells)
	err := ex.RunLabeled("chaos batch", cells, func(i int) error {
		v, err := Memo(ex, KeyOf("remote-fault-cell", i), func() (cacheResult, error) {
			time.Sleep(cellTime)
			return campaignCell(i), nil
		})
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Two workers run the same batch. A worker told to wait parks the cell
// and claims the next one instead of trailing its peer, so both lease
// work, and every cell is still computed under exactly one lease with the
// report bit-identical to the fleet-less baseline — serially and on a
// pool.
func TestFleetBatchSplitsWork(t *testing.T) {
	const cells = 16
	want := baseline(t, cells)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
			exs := []*Executor{
				newWorker(t, srv.URL, "a", workers),
				newWorker(t, srv.URL, "b", workers),
			}
			// Parked cells are reported once, when they finally complete.
			reported := make([][]int, len(exs))
			for w, ex := range exs {
				ex.progress = func(_ string, done, _ int) { reported[w] = append(reported[w], done) }
			}
			outs := make([][]cacheResult, len(exs))
			errs := make([]error, len(exs))
			var wg sync.WaitGroup
			for w := range exs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					outs[w], errs[w] = runBatchE(exs[w], cells, 20*time.Millisecond)
				}(w)
			}
			wg.Wait()

			var leased uint64
			for w, ex := range exs {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				wantIdentical(t, outs[w], want)
				fs := ex.Fleet().Stats()
				if fs.Leased < 1 || fs.Degraded != 0 {
					t.Fatalf("worker %d: %s; want at least one lease and no degradation", w, ex.FleetSummary())
				}
				leased += fs.Leased
				if r := reported[w]; len(r) != cells || r[len(r)-1] != cells {
					t.Fatalf("worker %d: progress reported %v, want 1..%d", w, r, cells)
				}
				if st := ex.Stats(); st.Computed+st.RemoteHits != cells {
					t.Fatalf("worker %d: computed %d + remote hits %d, want %d cells", w, st.Computed, st.RemoteHits, cells)
				}
			}
			if s := co.Status(); leased != cells || s.CellsDone != cells || s.Failed != 0 {
				t.Fatalf("leased = %d (want %d), coordinator status = %+v", leased, cells, s)
			}
		})
	}
}

// holdCell makes a peer worker claim key and compute v under a lease. It
// returns once the peer holds the lease; the peer finishes, publishes and
// acks when release is called, and done closes after that.
func holdCell(t *testing.T, srvURL string, key Key, v cacheResult) (release func(), done <-chan struct{}) {
	t.Helper()
	peer := newWorker(t, srvURL, "peer-"+string(key[:8]), 1)
	leased, rel, fin := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fin)
		if _, err := Memo(peer, key, func() (cacheResult, error) {
			close(leased)
			<-rel
			return v, nil
		}); err != nil {
			t.Errorf("peer: %v", err)
		}
	}()
	<-leased
	return func() { close(rel) }, fin
}

// awaitWaited blocks until ex has been told to wait at least once.
func awaitWaited(t *testing.T, ex *Executor) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ex.Fleet().Stats().Waited == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker was never told to wait")
		}
		time.Sleep(time.Millisecond)
	}
}

// A Do outside any batch — the serial loop of runCampaignE — never parks:
// told to wait, it polls until the peer's result lands and returns it.
func TestFleetBareMemoBlocksNotParks(t *testing.T) {
	srv, _, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	key := KeyOf("remote-fault-cell", 0)
	release, peerDone := holdCell(t, srv.URL, key, campaignCell(0))

	ex := newWorker(t, srv.URL, "waiter", 1)
	var got cacheResult
	var err error
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		got, err = Memo(ex, key, func() (cacheResult, error) {
			return cacheResult{}, fmt.Errorf("waiter computed a cell its peer holds")
		})
	}()
	awaitWaited(t, ex)
	release()
	<-waiterDone
	<-peerDone
	if err != nil {
		t.Fatalf("bare Memo: %v", err)
	}
	wantIdentical(t, []cacheResult{got}, []cacheResult{campaignCell(0)})
	if st := ex.Stats(); st.RemoteHits != 1 || st.Computed != 0 {
		t.Fatalf("stats = %+v, want one remote hit", st)
	}
}

// A batch cell's leased compute issues a nested Memo on a key a peer
// holds. The nested call cannot park — its enclosing cell already holds a
// lease and cannot be set aside half-computed — so it blocks and returns
// the peer's value.
func TestFleetNestedDoBlocksNotParks(t *testing.T) {
	srv, co, _, _ := startFleetServer(t, fleet.Options{LeaseTTL: 5 * time.Second})
	for _, workers := range []int{1, 2} {
		inner := KeyOf("remote-fault-cell", "inner", workers)
		release, peerDone := holdCell(t, srv.URL, inner, campaignCell(7))
		ex := newWorker(t, srv.URL, fmt.Sprintf("nester-%d", workers), workers)
		var got cacheResult
		var err error
		batchDone := make(chan struct{})
		go func() {
			defer close(batchDone)
			err = ex.RunLabeled("nested", 1, func(int) error {
				outer, err := Memo(ex, KeyOf("remote-fault-cell", "outer", workers), func() (cacheResult, error) {
					v, err := Memo(ex, inner, func() (cacheResult, error) {
						return cacheResult{}, fmt.Errorf("nested compute ran on a cell its peer holds")
					})
					if errors.Is(err, errParked) {
						t.Error("nested Memo parked")
					}
					return v, err
				})
				got = outer
				return err
			})
		}()
		awaitWaited(t, ex)
		release()
		<-batchDone
		<-peerDone
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		wantIdentical(t, []cacheResult{got}, []cacheResult{campaignCell(7)})
		if n := ex.fleetParked.Load(); n != 0 {
			t.Fatalf("workers=%d: %d cells parked, want 0", workers, n)
		}
		if fs := ex.Fleet().Stats(); fs.Leased != 1 {
			t.Fatalf("workers=%d: %+v, want only the outer cell leased", workers, fs)
		}
	}
	if s := co.Status(); s.CellsDone != 4 || s.Failed != 0 {
		t.Fatalf("coordinator status = %+v, want two inner and two outer cells done", s)
	}
}
