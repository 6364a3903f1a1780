// Package lab is the shared experiment executor behind every measurement
// campaign in this repository. The paper's methodology is an experiment
// campaign — hundreds of independent simulator runs (interference sweeps,
// §III-C3 calibration grids, §IV application studies, cluster compute
// phases) — and all of them schedule their cells through one Executor
// instead of hand-rolled goroutine fan-outs. The Executor provides:
//
//   - a bounded resident worker pool: at most Config.Workers cells run
//     concurrently (default GOMAXPROCS), so arbitrarily wide grids use
//     bounded memory, and the pool goroutines persist across batches, so a
//     campaign of hundreds of small batches pays worker spawning once
//     (Close releases them);
//   - content-addressed memoization: Do/Memo run a computation at most once
//     per Key, where a Key (built with KeyOf) fingerprints the experiment's
//     full input content — machine spec, workload identity, interference
//     kind and thread count, warmup/window, seed. Identical cells, such as
//     the uninterfered k=0 baseline shared by a storage sweep, a bandwidth
//     sweep and a calibration grid, execute exactly once per Executor;
//   - first-error propagation: a failing cell cancels all not-yet-started
//     cells of its batch, and Run reports the failure deterministically
//     (the lowest-indexed error observed);
//   - optional progress callbacks, serialised for CLI reporting.
//
// Determinism: cells are deterministic functions of their inputs and write
// results by index, so a batch's outcome is bit-identical for every worker
// count — Workers: 1 (fully serial) is the reference ordering that
// parallel runs must, and do, reproduce.
package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"activemem/internal/fleet"
	"activemem/internal/remote"
	"activemem/internal/store"
	"activemem/internal/telemetry"
)

// Key identifies the full input content of one experiment cell.
type Key string

// KeyOf fingerprints its arguments into a content-addressed Key: the
// ResultSchemaVersion stamp and each argument rendered in Go syntax (%#v)
// are fed to SHA-256, so two keys are equal exactly when the rendered
// inputs are and keys from different simulator generations never collide.
// Arguments must render deterministically — value structs, strings and
// numbers do; maps and pointers do not (iteration order and addresses vary
// run to run) and KeyOf panics on them, because a silently unstable key
// defeats memoization in-process and poisons the persistent store across
// processes. Expand such state into stable values at the call site.
func KeyOf(parts ...any) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1f", ResultSchemaVersion)
	for i, p := range parts {
		if err := checkFingerprintable(reflect.ValueOf(p), 0); err != nil {
			panic(fmt.Sprintf("lab: KeyOf argument %d (%T) cannot be fingerprinted deterministically: %v "+
				"(maps and pointers render iteration order or addresses; pass stable values instead)", i, p, err))
		}
		fmt.Fprintf(h, "%#v\x1f", p)
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// checkFingerprintable walks a value, rejecting kinds whose %#v rendering
// is not a pure function of content: maps (iteration order), pointers and
// unsafe pointers (addresses), channels and funcs (addresses). Structs,
// arrays, slices and interfaces are walked recursively; everything the
// experiment configs are made of — numbers, strings, bools, value structs —
// passes.
func checkFingerprintable(v reflect.Value, depth int) error {
	const maxDepth = 64
	if depth > maxDepth {
		return fmt.Errorf("nesting deeper than %d", maxDepth)
	}
	if !v.IsValid() { // untyped nil renders as a stable "<nil>"
		return nil
	}
	switch v.Kind() {
	case reflect.Map:
		return fmt.Errorf("contains a map (%s)", v.Type())
	case reflect.Ptr, reflect.UnsafePointer:
		return fmt.Errorf("contains a pointer (%s)", v.Type())
	case reflect.Chan, reflect.Func:
		return fmt.Errorf("contains a %s (%s)", v.Kind(), v.Type())
	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return checkFingerprintable(v.Elem(), depth+1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := checkFingerprintable(v.Field(i), depth+1); err != nil {
				return fmt.Errorf("field %s.%s: %w", v.Type(), v.Type().Field(i).Name, err)
			}
		}
	case reflect.Slice, reflect.Array:
		// Element types that cannot hold a rejected kind need no per-element
		// walk; this keeps KeyOf O(1) for the common []byte / []int64 cases.
		switch v.Type().Elem().Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := checkFingerprintable(v.Index(i), depth+1); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	}
	return nil
}

// Config parameterises an Executor.
type Config struct {
	// Workers bounds how many cells run concurrently. Zero or negative
	// selects GOMAXPROCS; 1 runs every batch inline, in index order.
	Workers int
	// Progress, when non-nil, is called after each cell of a batch
	// completes with the batch's label (possibly empty), the number
	// finished so far and the batch size. Calls are serialised across
	// workers. When a batch aborts on error after reporting at least one
	// completion, the callback receives one final call with done = -1 so
	// line-oriented meters can terminate their output.
	Progress func(label string, done, total int)
	// Cache, when non-nil, is the persistent disk tier behind the memo:
	// Do consults memory, then the store, then computes — and persists
	// successful results whose type is registered (RegisterResult). Open
	// the store with Schema: ResultSchemaVersion so stale results from an
	// older simulator generation self-invalidate. Several executors (or
	// processes) may share one cache directory; see package store.
	Cache *store.Store
	// Remote, when non-nil, is the network tier behind the disk tier (a
	// Campaign opens it from -cache-url): Do consults memory → disk →
	// remote → compute, and write-backs of computed cells flow to the
	// server asynchronously. The tier is strictly best-effort — a down,
	// slow, flaky or corrupting server degrades lookups to misses within
	// the client's deadline budget and can never fail a campaign or
	// change its bytes (see package remote). The executor does not own
	// the client; close it after the executor.
	Remote *remote.Client
	// Fleet, when non-nil, is a coordinator link (a Campaign opens it
	// from -worker-of) that turns this executor into one worker of a
	// distributed campaign: a cell that misses every cache tier is claimed from the
	// coordinator before computing, computed results are published
	// synchronously through the remote tier before the lease is acked,
	// and cells leased to other workers are waited out and then read
	// from the shared cache. An unreachable coordinator degrades every
	// claim to solo compute — a fleet can make a campaign faster, never
	// wrong (see package fleet). The executor does not own the client;
	// close it after the executor.
	Fleet *fleet.Client
}

// Executor schedules experiment cells. Construct with New; the zero value
// is not ready for use. An Executor (and its memo cache) may be shared by
// any number of concurrent batches: the Workers bound holds across all of
// them (one resident worker pool, not a per-batch pool), as does
// progress-callback serialisation. Run must not be called from inside one
// of its own jobs on the same Executor — a job occupies a resident worker,
// so same-executor nesting can starve the pool and deadlock; give nested
// work its own Executor, as the cluster cells scheduled by the app
// studies do (each cell runs its sockets on a private executor with one
// worker per simulated socket, never back on the executor that ran the
// cell).
//
// The pool is lazily created by the first parallel batch and persists
// across batches: a campaign of sweep ladders, calibration grids and
// adaptive re-runs — or a cluster run's per-iteration compute phases —
// crosses a channel handoff per job instead of spawning and tearing down
// Workers goroutines per batch. Close releases the resident workers; a
// later batch lazily respawns them. Stats reports WorkerSpawns and
// GroupReuses so campaigns can see the pool working.
type Executor struct {
	workers  int
	progress func(label string, done, total int)
	progMu   sync.Mutex // serialises progress across batches
	cache    *store.Store
	remote   *remote.Client
	fleet    *fleet.Client

	// fleetSolo counts cells computed without a lease while a fleet was
	// attached (coordinator unreachable, or a peer's result unfetchable) —
	// the degraded-but-correct path.
	fleetSolo atomic.Uint64

	// interrupted stops new cells from dispatching (graceful shutdown);
	// see Interrupt.
	interrupted atomic.Bool

	poolMu sync.Mutex
	pool   *workerPool // nil until the first parallel batch (and after Close)
	spawns int         // worker goroutines spawned over the executor's lifetime
	reuses int         // parallel batches dispatched onto an already-resident pool

	mu         sync.Mutex
	memo       map[Key]*memoEntry
	computed   int
	hits       int
	diskHits   int
	remoteHits int
	persisted  int
}

type memoEntry struct {
	once  sync.Once
	value any
	err   error
}

// workerPool is one generation of resident worker goroutines, all ranging
// over one unbuffered task channel. Submitters feed one task per job index,
// so concurrent batches interleave per job exactly as the semaphore they
// replace did, and the worker count is the concurrency bound.
type workerPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup
}

// poolTask is one job index of one batch. submitNs is the task's
// enqueue timestamp when span timing is active, zero otherwise.
type poolTask struct {
	b        *poolBatch
	i        int
	submitNs int64
}

// poolBatch is the shared state of one RunLabeled call in flight.
type poolBatch struct {
	ex     *Executor
	label  string
	job    func(i int) error
	report func()
	wg     sync.WaitGroup
	failed atomic.Bool

	errMu  sync.Mutex
	errIdx int
	errVal error
}

// fail records job i's error, keeping the lowest-indexed one.
func (b *poolBatch) fail(i int, err error) {
	b.errMu.Lock()
	if b.errIdx < 0 || i < b.errIdx {
		b.errIdx, b.errVal = i, err
	}
	b.errMu.Unlock()
	b.failed.Store(true)
}

// run executes one claimed task, skipping the job if its batch already
// failed (matching the executor's historical no-new-jobs-after-failure
// semantics for tasks handed to a worker before the failure was observed).
// The queued→start→done span instruments live here: queue depth drops at
// start, occupancy covers the job, and — when span timing is active — the
// queue wait and run duration feed the histograms and the per-label
// tracker. The job itself runs under a pprof cell label so CPU profiles
// attribute samples to the batch label.
func (t poolTask) run() {
	defer t.b.wg.Done()
	mQueueDepth.Add(-1)
	if t.b.failed.Load() {
		return
	}
	if t.submitNs != 0 {
		mQueueWait.Observe(telemetry.NowNs() - t.submitNs)
	}
	mWorkersBusy.Add(1)
	err := t.b.ex.runCell(t.b.label, t.i, t.b.job)
	mWorkersBusy.Add(-1)
	if err != nil {
		t.b.fail(t.i, err)
		return
	}
	t.b.report()
}

// runCell executes one cell under the batch's pprof label, timing the
// start→done span when telemetry is active. With a fleet attached, the
// batch label is also parked in the goroutine-keyed label table so the
// memo layer (Do has no label parameter) can attribute its claims.
func (e *Executor) runCell(label string, i int, job func(i int) error) error {
	if e.fleet != nil && label != "" {
		id := goid()
		cellLabels.Store(id, label)
		defer cellLabels.Delete(id)
	}
	var err error
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	telemetry.WithCellLabel(label, func() { err = job(i) })
	if timed {
		d := telemetry.NowNs() - startNs
		mRunSeconds.Observe(d)
		mLabelSpans.Observe(label, d)
	}
	return err
}

// New returns an Executor for the configuration.
func New(cfg Config) *Executor {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		// Floor the default at two: even a single-CPU host profits from a
		// resident pool, because cells block on the disk tier (cache preads,
		// segment fsyncs) and a second worker overlaps that wait with
		// compute. An explicit Workers: 1 still means fully serial.
		if w < 2 {
			w = 2
		}
	}
	return &Executor{workers: w, progress: cfg.Progress,
		cache: cfg.Cache, remote: cfg.Remote, fleet: cfg.Fleet,
		memo: map[Key]*memoEntry{}}
}

// Workers returns the executor's concurrency bound.
func (e *Executor) Workers() int { return e.workers }

// ensurePool returns the resident pool, spawning its workers on first use
// (or first use after Close) and counting reuse otherwise.
func (e *Executor) ensurePool() *workerPool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.pool == nil {
		// A workers-deep buffer lets submitters hand tasks over without a
		// scheduler round trip per job while still bounding queued work;
		// only the worker count bounds concurrency.
		p := &workerPool{tasks: make(chan poolTask, e.workers)}
		p.wg.Add(e.workers)
		for range e.workers {
			go func() {
				defer p.wg.Done()
				for t := range p.tasks {
					t.run()
				}
			}()
		}
		e.spawns += e.workers
		mWorkersResident.Add(int64(e.workers))
		e.pool = p
	} else {
		e.reuses++
	}
	return e.pool
}

// Close shuts the resident worker pool down and blocks until its goroutines
// have exited (waiting out any still-running jobs). It is idempotent, safe
// on an executor whose pool was never spawned, and not final: a later batch
// lazily respawns the pool. Close must not overlap an in-flight Run on the
// same executor — close between batches, not during one.
func (e *Executor) Close() {
	e.poolMu.Lock()
	p := e.pool
	e.pool = nil
	e.poolMu.Unlock()
	if p != nil {
		close(p.tasks)
		p.wg.Wait()
		mWorkersResident.Add(-int64(e.workers))
	}
}

// Run executes jobs 0..n-1 on the worker pool with an anonymous batch
// label; see RunLabeled.
func (e *Executor) Run(n int, job func(i int) error) error {
	return e.RunLabeled("", n, job)
}

// RunLabeled executes jobs 0..n-1 on the resident worker pool and blocks
// until they finish or fail. The label names the batch in progress
// reporting (e.g. "storage sweep: MCB" or "capacity grid c=10"), making
// long experiment campaigns legible. Once any job returns an error no
// further jobs start (jobs already running complete), and the call returns
// the error of the lowest-indexed failed job. Jobs must write their results
// by index into caller-owned storage; no output ordering is imposed.
func (e *Executor) RunLabeled(label string, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}

	// The batch's progress counter is guarded by the executor-wide progress
	// lock, so callbacks are serialised across batches and the per-batch
	// done counter never goes backwards.
	progDone := 0
	report := func() {
		if e.progress == nil {
			return
		}
		e.progMu.Lock()
		defer e.progMu.Unlock()
		progDone++
		e.progress(label, progDone, n)
	}
	abort := func() {
		if e.progress == nil {
			return
		}
		e.progMu.Lock()
		defer e.progMu.Unlock()
		if progDone > 0 {
			e.progress(label, -1, n) // abort signal: see Config.Progress
		}
	}

	mBatches.Inc()

	// Workers: 1 is the serial reference ordering; it runs inline with no
	// pool (and no other goroutine can exist to share the bound with).
	if e.workers == 1 {
		for i := 0; i < n; i++ {
			if e.interrupted.Load() {
				abort()
				return ErrInterrupted
			}
			if err := e.runCell(label, i, job); err != nil {
				abort()
				return err
			}
			report()
		}
		return nil
	}

	b := &poolBatch{ex: e, label: label, job: job, report: report, errIdx: -1}
	pool := e.ensurePool()
	// Feed one task per index into the pool's queue: only the resident
	// workers execute tasks, so the worker count bounds concurrency across
	// overlapping batches, and the FIFO queue interleaves their jobs fairly.
	// On failure stop feeding; tasks already queued or handed to workers
	// check the failed flag before running.
	timed := telemetry.Active()
	for i := 0; i < n && !b.failed.Load(); i++ {
		if e.interrupted.Load() {
			// Graceful shutdown: stop dispatching, let queued/in-flight
			// tasks drain through the failed-batch path below. A real cell
			// error at a lower index still wins the deterministic report.
			b.fail(i, ErrInterrupted)
			break
		}
		var submitNs int64
		if timed {
			submitNs = telemetry.NowNs()
		}
		b.wg.Add(1)
		mQueueDepth.Add(1)
		pool.tasks <- poolTask{b: b, i: i, submitNs: submitNs}
	}
	b.wg.Wait()
	if b.errVal != nil {
		abort()
	}
	return b.errVal
}

// Progress feeds one externally sequenced unit of work to the executor's
// progress callback, serialised with batch reporting. It exists for work
// that is inherently level-by-level — an adaptive sweep schedules each
// interference level only after seeing the previous slowdowns, outside
// RunLabeled — but should still drive the CLI meters. The done = -1
// early-termination signal of Config.Progress applies here too. A nil
// callback makes this a no-op.
func (e *Executor) Progress(label string, done, total int) {
	if e.progress == nil {
		return
	}
	e.progMu.Lock()
	defer e.progMu.Unlock()
	e.progress(label, done, total)
}

// Do returns the result for key, computing it with fn at most once per
// Executor; concurrent calls with the same key block until the single
// computation finishes and then share its result (including its error).
// With a disk tier attached (Config.Cache), the computation is preceded by
// a store lookup and followed by a best-effort persist, so identical cells
// run at most once per cache directory across processes and interrupted
// campaigns resume where they stopped. The caller must ensure the key
// captures every input fn's result depends on — an under-specified key
// silently returns a wrong cached result.
func (e *Executor) Do(key Key, fn func() (any, error)) (any, error) {
	e.mu.Lock()
	ent, ok := e.memo[key]
	if !ok {
		ent = &memoEntry{}
		e.memo[key] = ent
	}
	e.mu.Unlock()

	ran, wrote := false, false
	hitTier := tierMemo
	timed := telemetry.Active()
	var startNs int64
	if timed {
		startNs = telemetry.NowNs()
	}
	ent.once.Do(func() {
		if v, tier, ok := e.cacheGet(key); ok {
			ent.value = v
			hitTier = tier
			return
		}
		if e.fleet != nil {
			ent.value, ent.err, hitTier, ran, wrote = e.fleetResolve(key, fn)
			return
		}
		ent.value, ent.err = fn()
		ran = true
		if ent.err == nil {
			wrote = e.cachePut(key, ent.value)
		}
	})

	// Attribute the span to the tier that resolved it. Callers that merely
	// waited out another goroutine's once.Do count as memo hits (their span
	// is the wait), matching the Stats accounting below.
	tier := hitTier
	if ran {
		tier = tierCompute
	}
	mCells[tier].Inc()
	if timed {
		mCellSeconds[tier].Observe(telemetry.NowNs() - startNs)
	}

	e.mu.Lock()
	switch tier {
	case tierCompute:
		e.computed++
		if wrote {
			e.persisted++
		}
	case tierDisk:
		e.diskHits++
	case tierRemote:
		e.remoteHits++
	default:
		e.hits++
	}
	e.mu.Unlock()
	return ent.value, ent.err
}

// Memo is the typed wrapper around Do. A cached value whose type does not
// match T reports an error rather than a silent zero value: it means two
// call sites collided on one key with different result types.
func Memo[T any](e *Executor, key Key, fn func() (T, error)) (T, error) {
	v, err := e.Do(key, func() (any, error) {
		t, err := fn()
		return t, err
	})
	var zero T
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("lab: memoized value for key %.12s… has type %T, want %T (key collision?)",
			string(key), v, zero)
	}
	return t, nil
}

// Stats summarises the executor's memoization and worker-pool activity.
type Stats struct {
	// Computed is the number of distinct computations executed via Do.
	Computed int
	// Hits is the number of Do calls served from the in-memory memo.
	Hits int
	// DiskHits is the number of Do calls served from the persistent store
	// (a segment read plus a decode).
	DiskHits int
	// RemoteHits is the number of Do calls served from the remote cache
	// tier (a verified network fetch plus a decode).
	RemoteHits int
	// Persisted is the number of computed results written to the store.
	Persisted int
	// WorkerSpawns is the number of resident worker goroutines spawned over
	// the executor's lifetime: Workers per pool creation, so it stays at
	// Workers for a whole campaign unless Close intervenes.
	WorkerSpawns int
	// GroupReuses is the number of parallel batches dispatched onto an
	// already-resident pool — every batch after a campaign's first that did
	// not pay worker spawning.
	GroupReuses int
}

// Stats returns a snapshot of the memoization and pool counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	st := Stats{Computed: e.computed, Hits: e.hits, DiskHits: e.diskHits,
		RemoteHits: e.remoteHits, Persisted: e.persisted}
	e.mu.Unlock()
	e.poolMu.Lock()
	st.WorkerSpawns, st.GroupReuses = e.spawns, e.reuses
	e.poolMu.Unlock()
	return st
}
