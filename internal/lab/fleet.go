// The executor's fleet integration: how one process becomes one worker
// of a distributed campaign. The shape follows from content addressing —
// every worker runs the *same* grid, so the fleet layer gates only the
// compute leg of Do. A cell that any worker already published is a plain
// remote-tier hit and never even reaches the coordinator; a cell nobody
// has is claimed, and the claim verdict decides: compute under a lease
// (publish synchronously, then ack), wait out a peer and read its bytes
// from the shared cache, or — whenever the coordinator is unreachable or
// a peer's bytes cannot be fetched — compute solo, exactly as a
// fleet-less run would. Every degraded path converges on the same bytes,
// so a fleet can only ever change a campaign's speed.

package lab

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"activemem/internal/fleet"
	"activemem/internal/remote"
)

// Fleet returns the executor's coordinator link, or nil.
func (e *Executor) Fleet() *fleet.Client { return e.fleet }

// cellLabels maps goroutine id → batch label while a labelled cell runs
// with a fleet attached; see Executor.runCell. A process-wide table is
// correct because a goroutine runs one cell at a time regardless of how
// many executors exist.
var cellLabels sync.Map

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

// cellLabel returns the batch label parked for this goroutine, if any.
func (e *Executor) cellLabel() string {
	if v, ok := cellLabels.Load(goid()); ok {
		return v.(string)
	}
	return ""
}

// fleetResolve resolves one cache-missed cell through the coordinator.
// It is called inside the memo entry's once, so at most one goroutine
// per process negotiates any given key. The return values slot straight
// into Do's tier accounting: ran means fn executed here, otherwise tier
// names the cache tier that served the bytes.
func (e *Executor) fleetResolve(key Key, fn func() (any, error)) (v any, err error, tier int, ran, wrote bool) {
	label := e.cellLabel()
	for {
		if e.interrupted.Load() {
			return nil, ErrInterrupted, 0, false, false
		}
		d := e.fleet.Claim(string(key), label)
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
			// A peer holds the lease. Sleep the suggested interval (jittered,
			// so waiters don't reconverge), recheck the cache tiers — the
			// peer's publish lands there — then claim again; the coordinator
			// answers done/run/wait as the lease played out.
			time.Sleep(remote.JitteredBackoff(d.RetryIn, d.RetryIn, 0))
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
// distributed-smoke step parses leased and degraded).
func (e *Executor) FleetSummary() string {
	fs := e.fleet.Stats()
	return fmt.Sprintf("fleet: worker=%s leased=%d stolen=%d waited=%d done=%d late_acks=%d lost=%d degraded=%d solo=%d rpc_errors=%d url=%s",
		fs.Worker, fs.Leased, fs.Stolen, fs.Waited, fs.Done, fs.LateAcks,
		fs.Lost, fs.Degraded, e.fleetSolo.Load(), fs.RPCErrors, e.fleet.BaseURL())
}
