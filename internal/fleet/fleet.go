// Package fleet shards one campaign grid across N worker processes with
// no lost work. It is the robustness substrate for distributed campaign
// execution over the content-addressed keyspace: a lease-based
// coordinator (Coordinator + NewHandler, mounted at /v1/campaign/ by
// labcached, beside its cell store or alone when it serves no store
// directory) and a worker client (Client) that the lab executor consults
// before computing a cell.
//
// The design leans entirely on content addressing. Every worker runs the
// *same* grid; the coordinator does not push work, it arbitrates who
// computes what. A worker that misses every cache tier for a cell asks
// the coordinator to claim it:
//
//   - run: the worker got a bounded-TTL lease — compute, publish the
//     result synchronously through the shared cache, then ack.
//   - wait: another worker holds the lease — sleep briefly, recheck the
//     cache tiers (its result lands there), claim again.
//   - done/failed/abort: terminal verdicts for the cell or campaign.
//
// Leases expire when their worker misses its heartbeat window, and the
// cell is simply requeued: a dead worker costs the campaign one lease
// TTL, never a cell. Leases held past the steal threshold are duplicated
// to the next idle claimant (work-stealing); the first completion wins
// and the duplicate is harmless, because both computed byte-identical
// results under the same key. Every worker can complete the whole grid
// alone, so any crash/stall/partition pattern that leaves one worker
// alive still finishes with bytes identical to the serial baseline —
// and a worker that cannot reach the coordinator at all degrades to
// exactly that solo run.
package fleet

import (
	"fmt"
	"os"
)

// PathPrefix roots the coordinator's HTTP endpoints. POST bodies and all
// responses are JSON.
//
//	POST {prefix}claim      ClaimRequest     → ClaimResponse
//	POST {prefix}done       DoneRequest      → DoneResponse
//	POST {prefix}fail       FailRequest      → FailResponse
//	POST {prefix}heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST {prefix}manifest   ManifestRequest  → ManifestResponse
//	GET  {prefix}status                      → Status
const PathPrefix = "/v1/campaign/"

// Claim verdicts. ActionUnreachable is produced client-side only, when
// the coordinator cannot be reached within the retry budget: the worker
// computes solo, exactly as it would with no fleet at all.
const (
	ActionRun         = "run"
	ActionWait        = "wait"
	ActionDone        = "done"
	ActionFailed      = "failed"
	ActionAbort       = "abort"
	ActionUnreachable = "unreachable"
)

// ClaimRequest asks for the right to compute one cell. Key is the
// content-addressed cell key (lab.KeyOf); Label is the campaign label
// for operator-facing accounting; Worker identifies the claimant.
type ClaimRequest struct {
	Key    string `json:"key"`
	Label  string `json:"label,omitempty"`
	Worker string `json:"worker"`
}

// ClaimResponse carries the verdict. Lease and TTLMillis accompany
// ActionRun; RetryMillis suggests a poll delay for ActionWait; Error
// carries the cell or campaign error for ActionFailed/ActionAbort.
type ClaimResponse struct {
	Action      string `json:"action"`
	Lease       uint64 `json:"lease,omitempty"`
	TTLMillis   int64  `json:"ttl_ms,omitempty"`
	RetryMillis int64  `json:"retry_ms,omitempty"`
	Steal       bool   `json:"steal,omitempty"`
	Error       string `json:"error,omitempty"`
}

// DoneRequest acks a computed-and-published cell under the lease that
// authorised it.
type DoneRequest struct {
	Key    string `json:"key"`
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// DoneResponse reports whether this ack won. A false answer means the
// lease was no longer live (expired, or another worker finished first) —
// the worker's locally computed value is still valid, it just wasn't the
// completion of record.
type DoneResponse struct {
	Accepted bool `json:"accepted"`
}

// FailRequest reports a cell whose compute returned an error.
type FailRequest struct {
	Key    string `json:"key"`
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
	Error  string `json:"error"`
}

// FailResponse reports whether the campaign is now aborted (first-error
// policy) so the worker can stop claiming.
type FailResponse struct {
	Aborted bool `json:"aborted"`
}

// HeartbeatRequest extends the deadline of every lease the worker still
// holds.
type HeartbeatRequest struct {
	Worker string     `json:"worker"`
	Leases []LeaseRef `json:"leases"`
}

// LeaseRef names one held lease.
type LeaseRef struct {
	Key   string `json:"key"`
	Lease uint64 `json:"lease"`
}

// HeartbeatResponse lists keys whose leases are no longer live — the
// worker drops them locally and lets a later Done fall through as a
// late ack.
type HeartbeatResponse struct {
	Lost []string `json:"lost,omitempty"`
}

// ManifestRequest pre-registers cells so Status can report campaign
// totals before the first claim arrives. It is advisory: claims for
// unregistered keys register them on the fly, because grids with
// data-dependent cells cannot be enumerated up front.
type ManifestRequest struct {
	Cells []ManifestCell `json:"cells"`
}

// ManifestCell names one expected cell.
type ManifestCell struct {
	Key   string `json:"key"`
	Label string `json:"label,omitempty"`
}

// ManifestResponse reports how many cells were newly registered and how
// many were already known.
type ManifestResponse struct {
	Registered int `json:"registered"`
	Known      int `json:"known"`
}

// DefaultWorkerID derives a fleet-unique worker identity from the host
// and pid — good enough for processes that never share a pid namespace
// instant, and overridable everywhere an identity is accepted.
func DefaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
