package lab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		e := New(Config{Workers: workers})
		out := make([]int, 100)
		err := e.Run(len(out), func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(Config{Workers: workers})
	var cur, peak atomic.Int64
	err := e.Run(50, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestWorkersBoundHoldsAcrossBatches pins the semaphore semantics: the
// Workers bound is executor-wide, so concurrent Run batches share it
// rather than each spawning their own pool.
func TestWorkersBoundHoldsAcrossBatches(t *testing.T) {
	const workers = 2
	e := New(Config{Workers: workers})
	var cur, peak atomic.Int64
	job := func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Run(10, job); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d across 3 batches exceeds %d workers", p, workers)
	}
}

func TestRunDefaultsToGOMAXPROCS(t *testing.T) {
	// The default is GOMAXPROCS floored at two: even on a single-CPU host
	// the campaign gets a resident pool that overlaps cache I/O with
	// compute.
	want := runtime.GOMAXPROCS(0)
	if want < 2 {
		want = 2
	}
	if w := New(Config{}).Workers(); w != want {
		t.Fatalf("default workers = %d, want %d", w, want)
	}
	if w := New(Config{Workers: -3}).Workers(); w != want {
		t.Fatalf("negative workers resolved to %d, want %d", w, want)
	}
	// An explicit 1 is the serial reference ordering and must stay serial.
	if w := New(Config{Workers: 1}).Workers(); w != 1 {
		t.Fatalf("explicit Workers: 1 resolved to %d", w)
	}
}

func TestRunFirstErrorCancelsPending(t *testing.T) {
	boom := errors.New("boom")
	e := New(Config{Workers: 1})
	var ran atomic.Int64
	err := e.Run(10, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("serial run executed %d jobs after failure at index 3", got)
	}
}

func TestRunParallelErrorIsLowestIndex(t *testing.T) {
	e := New(Config{Workers: 4})
	err := e.Run(8, func(i int) error {
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil {
		t.Fatal("no error propagated")
	}
	// All failures happen immediately; the reported one must be the lowest
	// index among those observed, which always includes job 0's worker.
	if err.Error() != "job 0 failed" && err.Error() != "job 1 failed" &&
		err.Error() != "job 2 failed" && err.Error() != "job 3 failed" {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	e := New(Config{Workers: 2, Progress: func(_ string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 6 {
			t.Errorf("total = %d", total)
		}
		seen = append(seen, done)
	}})
	if err := e.Run(6, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("progress called %d times, want 6", len(seen))
	}
	// Calls are serialised under the batch's progress lock, so the done
	// counter must arrive strictly in order.
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence out of order: %v", seen)
		}
	}
}

func TestProgressAbortSignal(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		e := New(Config{Workers: workers, Progress: func(_ string, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, done)
		}})
		err := e.Run(8, func(i int) error {
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		mu.Lock()
		if len(seen) == 0 || seen[len(seen)-1] != -1 {
			t.Fatalf("workers=%d: no abort signal after progress %v", workers, seen)
		}
		mu.Unlock()
	}
	// A batch that fails before any completion stays silent: there is no
	// meter line to terminate.
	called := false
	e := New(Config{Workers: 1, Progress: func(_ string, done, total int) { called = true }})
	if err := e.Run(3, func(int) error { return boom }); !errors.Is(err, boom) {
		t.Fatal("error not propagated")
	}
	if called {
		t.Fatal("progress called for a batch with zero completions")
	}
}

func TestDoMemoizesConcurrently(t *testing.T) {
	e := New(Config{Workers: 8})
	var calls atomic.Int64
	key := KeyOf("baseline", 1)
	err := e.Run(32, func(int) error {
		v, err := Memo(e, key, func() (int, error) {
			calls.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 {
			return fmt.Errorf("memo returned (%v, %v)", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("computation ran %d times", n)
	}
	st := e.Stats()
	if st.Computed != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 1 computed / 31 hits", st)
	}
}

func TestDoCachesErrors(t *testing.T) {
	e := New(Config{})
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := Memo(e, KeyOf("fails"), func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing computation ran %d times", calls)
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	type spec struct{ A, B int }
	a := KeyOf(spec{1, 2}, "x", 3)
	b := KeyOf(spec{1, 2}, "x", 3)
	c := KeyOf(spec{1, 2}, "x", 4)
	d := KeyOf(spec{2, 1}, "x", 3)
	if a != b {
		t.Fatal("identical inputs produced different keys")
	}
	if a == c || a == d || c == d {
		t.Fatal("distinct inputs collided")
	}
	// Argument boundaries matter: ("ab","c") != ("a","bc") must hold even
	// though the concatenated content is equal.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("argument boundary collision")
	}
}

// TestKeyOfIsPinned pins the hex KeyOf renders for a fixed mix of
// argument kinds. Fleet workers on different hosts, and a store filled by
// an older build, agree on a cell only because the key is the same
// everywhere, so a change to KeyOf's rendering must fail here. The pin
// moves only together with ResultSchemaVersion, which retires every
// stored key at once.
func TestKeyOfIsPinned(t *testing.T) {
	type spec struct {
		Name  string
		Lines int64
		Rate  float64
		On    bool
	}
	got := KeyOf(spec{Name: "l3", Lines: 4096, Rate: 2.8, On: true}, nil,
		[]int64{0, -1, 1 << 40}, "bwthr-ladder", 1.5e-9, false)
	const want = "36223fcd931d4a20a2d54fa78828c43044e5dd1ec7a327d3e4f4e4fd58617feb"
	if got != want {
		t.Fatalf("KeyOf = %s, want %s (schema %s): key rendering changed; bump ResultSchemaVersion with the pin",
			got, want, ResultSchemaVersion)
	}
}

func TestRunEmptyBatch(t *testing.T) {
	e := New(Config{})
	if err := e.Run(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPersistsAcrossBatches pins the resident-pool contract: a campaign
// of many batches spawns its worker goroutines once, and every later batch
// is a pool reuse.
func TestPoolPersistsAcrossBatches(t *testing.T) {
	const workers, batches = 4, 25
	e := New(Config{Workers: workers})
	defer e.Close()
	for b := 0; b < batches; b++ {
		out := make([]int, 10)
		if err := e.Run(len(out), func(i int) error {
			out[i] = i + b
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i+b {
				t.Fatalf("batch %d: out[%d] = %d", b, i, v)
			}
		}
	}
	st := e.Stats()
	if st.WorkerSpawns != workers {
		t.Fatalf("spawned %d workers over %d batches, want %d once", st.WorkerSpawns, batches, workers)
	}
	if st.GroupReuses != batches-1 {
		t.Fatalf("pool reuses = %d, want %d", st.GroupReuses, batches-1)
	}
}

// TestSerialExecutorNeverSpawns pins that Workers: 1 — the deterministic
// reference ordering — stays a pure inline loop with no resident state, so
// Close is optional for it.
func TestSerialExecutorNeverSpawns(t *testing.T) {
	e := New(Config{Workers: 1})
	for b := 0; b < 5; b++ {
		if err := e.Run(4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.WorkerSpawns != 0 || st.GroupReuses != 0 {
		t.Fatalf("serial executor touched the pool: %+v", st)
	}
	e.Close() // harmless
}

// TestCloseWhileIdle exercises the Close contract between batches: it is
// idempotent, safe before any batch ever ran, releases the resident
// workers, and a later batch transparently respawns them.
func TestCloseWhileIdle(t *testing.T) {
	New(Config{Workers: 3}).Close() // pool never spawned

	e := New(Config{Workers: 3})
	if err := e.Run(6, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if st := e.Stats(); st.WorkerSpawns != 3 {
		t.Fatalf("spawns after close = %d", st.WorkerSpawns)
	}
	// The pool respawns lazily after Close.
	out := make([]int, 6)
	if err := e.Run(len(out), func(i int) error { out[i] = i + 1; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("post-close batch: out[%d] = %d", i, v)
		}
	}
	if st := e.Stats(); st.WorkerSpawns != 6 {
		t.Fatalf("respawn generation missing: spawns = %d, want 6", st.WorkerSpawns)
	}
	e.Close()
}

// TestInterleavedBatchesShareResidentPool is the -race coverage for pool
// reuse across interleaved Run/RunLabeled calls from concurrent goroutines:
// one spawn generation serves them all, the Workers bound holds, and every
// job of every batch runs exactly once.
func TestInterleavedBatchesShareResidentPool(t *testing.T) {
	const workers, callers, batchesPer, jobs = 3, 5, 8, 12
	e := New(Config{Workers: workers})
	defer e.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	results := make([][][]int, callers)
	for c := 0; c < callers; c++ {
		results[c] = make([][]int, batchesPer)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				out := make([]int, jobs)
				results[c][b] = out
				label := fmt.Sprintf("caller %d batch %d", c, b)
				err := e.RunLabeled(label, jobs, func(i int) error {
					n := cur.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					out[i] = c<<16 | b<<8 | i
					cur.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d resident workers", p, workers)
	}
	for c := range results {
		for b, out := range results[c] {
			for i, v := range out {
				if v != c<<16|b<<8|i {
					t.Fatalf("caller %d batch %d job %d = %#x", c, b, i, v)
				}
			}
		}
	}
	if st := e.Stats(); st.WorkerSpawns != workers || st.GroupReuses != callers*batchesPer-1 {
		t.Fatalf("pool stats across interleaved batches = %+v", st)
	}
}

func TestRunLabeledReportsLabel(t *testing.T) {
	var mu sync.Mutex
	var labels []string
	e := New(Config{Workers: 1, Progress: func(label string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		labels = append(labels, label)
	}})
	if err := e.RunLabeled("fig6 c=10 grid", 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := []string{"fig6 c=10 grid", "fig6 c=10 grid", "fig6 c=10 grid", ""}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}
