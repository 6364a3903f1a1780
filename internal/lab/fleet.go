// The executor's fleet integration: how one process becomes one worker
// of a distributed campaign. The shape follows from content addressing —
// every worker runs the *same* grid, so the fleet layer gates only the
// compute leg of Do. A cell that any worker already published is a plain
// remote-tier hit and never even reaches the coordinator; a cell nobody
// has is claimed, and the claim verdict decides: compute under a lease
// (publish synchronously, then ack), step past a peer's lease or wait it
// out and read its bytes from the shared cache, or — whenever the
// coordinator is unreachable or a peer's bytes cannot be fetched —
// compute solo, exactly as a fleet-less run would. Every degraded path
// converges on the same bytes, so a fleet can only ever change a
// campaign's speed.
//
// Stepping past is what splits a campaign: every worker walks each batch
// in the same index order, so a worker told to wait for a top-level
// batch cell parks it (errParked) and claims the next index instead of
// trailing the lease holder; RunLabeled revisits parked cells at the end
// of the batch, when they are usually remote-tier hits. Only a batch cell
// the executor dispatched parks. A Do outside any batch, or nested inside
// a cell's compute, blocks and polls, so nothing can deadlock on a cell
// it set aside.

package lab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"activemem/internal/fleet"
	"activemem/internal/remote"
)

// Fleet returns the executor's coordinator link, or nil.
func (e *Executor) Fleet() *fleet.Client { return e.fleet }

// errParked is what a parkable batch cell's Do returns when the
// coordinator answers wait: a peer holds the cell's lease, so the batch
// sets the index aside and claims the next one. RunLabeled consumes it;
// it never reaches a caller outside the executor.
var errParked = errors.New("lab: fleet: cell parked behind a peer's lease")

// cellCtx is the executor's view of the batch cell a goroutine is
// running: its label (for coordinator accounting) and whether a wait
// verdict may park it. See Executor.runCell.
type cellCtx struct {
	label    string
	parkable bool
}

// cellCtxs maps goroutine id → cellCtx while a batch cell runs with a
// fleet attached. Do has no label or batch parameter, so the table is how
// the memo layer learns both. A process-wide table is correct because a
// goroutine runs one cell at a time regardless of how many executors
// exist; an inline nested batch re-enters on the same goroutine, which is
// why enterCell restores the outer context.
var cellCtxs sync.Map

// goid parses this goroutine's id from the first stack-trace line
// ("goroutine N [running]:"). The one-line runtime.Stack call costs
// tens of nanoseconds against a claim RPC's milliseconds, and only runs
// on the fleet path.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// enterCell installs c as this goroutine's cell context and returns the
// function that reinstates the context it replaced.
func enterCell(c cellCtx) (restore func()) {
	id := goid()
	prev, had := cellCtxs.Load(id)
	cellCtxs.Store(id, c)
	return func() {
		if had {
			cellCtxs.Store(id, prev)
		} else {
			cellCtxs.Delete(id)
		}
	}
}

// currentCell returns this goroutine's cell context; the zero value (no
// label, not parkable) outside any fleet batch cell.
func currentCell() cellCtx {
	if v, ok := cellCtxs.Load(goid()); ok {
		return v.(cellCtx)
	}
	return cellCtx{}
}

// waitPollFloor is the first poll interval of a blocked waiter: the
// coordinator's own retryMillis floor. Polls double from here up to the
// coordinator's suggested interval, so a waiter sees a peer's result
// within tens of milliseconds of its publish.
const waitPollFloor = 25 * time.Millisecond

// fleetResolve resolves one cache-missed cell through the coordinator.
// It is called inside the memo entry's once, so at most one goroutine
// per process negotiates any given key. The return values slot straight
// into Do's tier accounting: ran means fn executed here, otherwise tier
// names the cache tier that served the bytes. A wait verdict parks a
// parkable cell (errParked) and blocks anything else.
func (e *Executor) fleetResolve(key Key, fn func() (any, error)) (v any, err error, tier int, ran, wrote bool) {
	cc := currentCell()
	if cc.parkable {
		// fn may issue nested Do calls — a calibration cell's measurements.
		// They must block rather than park: the cell cannot be set aside
		// half-computed, and its lease is already held.
		inner := fn
		fn = func() (any, error) {
			defer enterCell(cellCtx{label: cc.label})()
			return inner()
		}
	}
	for attempt := 0; ; attempt++ {
		if e.interrupted.Load() {
			return nil, ErrInterrupted, 0, false, false
		}
		d := e.fleet.Claim(string(key), cc.label)
		switch d.Action {
		case fleet.ActionRun:
			v, err = fn()
			if err != nil {
				e.fleet.Fail(string(key), err.Error())
				return nil, err, 0, true, false
			}
			// Publish before acking: peers told "done" fetch from the shared
			// cache, so the bytes must precede the verdict.
			wrote = e.cachePutMode(key, v, true)
			e.fleet.Done(string(key))
			return v, nil, 0, true, wrote

		case fleet.ActionDone:
			// A peer completed the cell and published it. The publish
			// happened before its ack, so this fetch should hit; when it
			// cannot (no shared cache tier, server down again), compute
			// solo — a byte-identical duplicate, by construction.
			if cv, ctier, ok := e.cacheGet(key); ok {
				return cv, nil, ctier, false, false
			}
			e.fleetSolo.Add(1)
			v, err = fn()
			if err == nil {
				wrote = e.cachePut(key, v)
			}
			return v, err, 0, true, wrote

		case fleet.ActionWait:
			// A peer holds the lease. A batch cell steps past it; RunLabeled
			// comes back once the rest of the batch is done.
			if cc.parkable {
				return nil, errParked, 0, false, false
			}
			// Anything else polls: sleep (jittered, so waiters don't
			// reconverge, and doubling up to the coordinator's suggestion),
			// recheck the cache tiers — the peer's publish lands there — then
			// claim again; the coordinator answers done/run/wait as the lease
			// played out.
			time.Sleep(remote.JitteredBackoff(waitPollFloor, d.RetryIn, attempt))
			if cv, ctier, ok := e.cacheGet(key); ok {
				return cv, nil, ctier, false, false
			}

		case fleet.ActionFailed:
			msg := d.Err
			if msg == "" {
				msg = "cell failed on another worker"
			}
			return nil, fmt.Errorf("lab: fleet: cell %.12s… failed: %s", string(key), msg), 0, false, false

		case fleet.ActionAbort:
			msg := d.Err
			if msg == "" {
				msg = "campaign aborted"
			}
			return nil, fmt.Errorf("lab: fleet: %s", msg), 0, false, false

		default: // fleet.ActionUnreachable
			// The coordinator is gone or rejecting us: run the cell exactly
			// as a fleet-less executor would. Uncoordinated duplicates across
			// workers are possible and harmless — same key, same bytes.
			e.fleetSolo.Add(1)
			v, err = fn()
			if err == nil {
				wrote = e.cachePut(key, v)
			}
			return v, err, 0, true, wrote
		}
	}
}

// FleetSummary renders the worker's coordinator-link counters in the
// same machine-readable key=value form as CacheSummary (CI's
// distributed-smoke steps parse leased and degraded). waited counts
// every wait verdict; parked counts the batch cells those verdicts set
// aside, once per parked attempt.
func (e *Executor) FleetSummary() string {
	fs := e.fleet.Stats()
	return fmt.Sprintf("fleet: worker=%s leased=%d stolen=%d waited=%d parked=%d done=%d late_acks=%d lost=%d degraded=%d solo=%d rpc_errors=%d url=%s",
		fs.Worker, fs.Leased, fs.Stolen, fs.Waited, e.fleetParked.Load(), fs.Done, fs.LateAcks,
		fs.Lost, fs.Degraded, e.fleetSolo.Load(), fs.RPCErrors, e.fleet.BaseURL())
}
