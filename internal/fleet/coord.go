// The coordinator: lease arbitration over one campaign's cell keyspace.
// All state lives behind one mutex — the unit of work it arbitrates is
// an engine simulation taking milliseconds to minutes, so coordination
// traffic is hundreds of tiny RPCs per campaign, not a hot path. Expiry
// is lazy: stale leases are pruned at the top of every RPC against an
// injectable clock, which keeps the coordinator timer-free and makes
// every expiry edge case directly testable.

package fleet

import (
	"sync"
	"time"
)

// Options tunes a Coordinator. Zero values select the documented
// defaults.
type Options struct {
	// LeaseTTL bounds how long a lease lives without a heartbeat
	// (default 15s). A worker that dies mid-cell costs the campaign at
	// most one TTL before the cell is requeued.
	LeaseTTL time.Duration
	// StealAfter is how long a cell may stay continuously leased before
	// an idle claimant is granted a duplicate lease (default 45s).
	// First completion wins; content addressing makes the loser's work
	// byte-identical and therefore harmless.
	StealAfter time.Duration
	// MaxLeases caps concurrent leases per cell, original plus steals
	// (default 2). More duplicates than that burns compute without
	// improving tail latency.
	MaxLeases int
	// KeepGoing selects the failure policy: false (default) aborts the
	// campaign on the first failed cell; true re-leases a failed cell up
	// to MaxRetries times and then marks it permanently failed.
	KeepGoing bool
	// MaxRetries bounds compute-failure re-leases per cell under
	// KeepGoing (default 2). Lease expiries are not failures and do not
	// count: a crashed worker says nothing about the cell.
	MaxRetries int
	// WorkerTableSize bounds the per-worker accounting table (default
	// 64); when full, the stalest entry is evicted. Aggregate counters
	// are exact regardless — only per-worker attribution is bounded,
	// eHashPipe-style.
	WorkerTableSize int
	// Now injects the clock for tests (default time.Now).
	Now func() time.Time
}

func (o *Options) withDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 45 * time.Second
	}
	if o.MaxLeases <= 0 {
		o.MaxLeases = 2
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	if o.WorkerTableSize <= 0 {
		o.WorkerTableSize = 64
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed
)

type lease struct {
	id       uint64
	worker   string
	granted  time.Time
	deadline time.Time
	steal    bool
}

type cell struct {
	key      string
	label    string
	state    cellState
	leases   []lease // live leases, oldest first; len ≤ MaxLeases
	failures int     // compute failures so far (keep-going policy)
	err      string  // terminal error once state == cellFailed
}

type workerInfo struct {
	ID       string    `json:"id"`
	LastSeen time.Time `json:"last_seen"`
	Leased   uint64    `json:"leased"`
	Stolen   uint64    `json:"stolen"`
	Done     uint64    `json:"done"`
	Expired  uint64    `json:"expired"`
	Failed   uint64    `json:"failed"`
}

// Coordinator arbitrates leases over one campaign. Safe for concurrent
// use; construct with NewCoordinator.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	cells    map[string]*cell
	workers  map[string]*workerInfo
	nextID   uint64
	aborted  bool
	abortErr string

	nLeases, nSteals, nExpired, nRequeued uint64
	nLateAcks, nDone, nFailed             uint64
}

// NewCoordinator returns a coordinator with no cells registered; the
// manifest endpoint and incoming claims populate the keyspace.
func NewCoordinator(o Options) *Coordinator {
	o.withDefaults()
	return &Coordinator{
		opts:    o,
		cells:   map[string]*cell{},
		workers: map[string]*workerInfo{},
	}
}

// touchWorker finds-or-creates the accounting row for id, evicting the
// stalest row when the bounded table is full. Callers hold c.mu.
func (c *Coordinator) touchWorker(id string, now time.Time) *workerInfo {
	if w, ok := c.workers[id]; ok {
		w.LastSeen = now
		return w
	}
	if len(c.workers) >= c.opts.WorkerTableSize {
		var stalest *workerInfo
		for _, w := range c.workers {
			if stalest == nil || w.LastSeen.Before(stalest.LastSeen) {
				stalest = w
			}
		}
		delete(c.workers, stalest.ID)
	}
	w := &workerInfo{ID: id, LastSeen: now}
	c.workers[id] = w
	return w
}

// prune expires every lease whose deadline has passed (strictly: a
// heartbeat landing exactly on the deadline still saves the lease) and
// requeues cells left with no live lease. Callers hold c.mu.
func (c *Coordinator) prune(now time.Time) {
	for _, ce := range c.cells {
		if ce.state != cellLeased {
			continue
		}
		live := ce.leases[:0]
		for _, l := range ce.leases {
			if now.After(l.deadline) {
				c.nExpired++
				mExpired.Inc()
				if w, ok := c.workers[l.worker]; ok {
					w.Expired++
				}
				continue
			}
			live = append(live, l)
		}
		ce.leases = live
		if len(ce.leases) == 0 {
			ce.state = cellPending
			c.nRequeued++
			mRequeued.Inc()
		}
	}
}

// Claim handles one claim RPC.
func (c *Coordinator) Claim(req ClaimRequest) ClaimResponse {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)
	w := c.touchWorker(req.Worker, now)

	if c.aborted {
		mClaims[claimAbort].Inc()
		return ClaimResponse{Action: ActionAbort, Error: c.abortErr}
	}
	ce, ok := c.cells[req.Key]
	if !ok {
		ce = &cell{key: req.Key, label: req.Label}
		c.cells[req.Key] = ce
	}
	if ce.label == "" {
		ce.label = req.Label
	}

	switch ce.state {
	case cellDone:
		mClaims[claimDone].Inc()
		return ClaimResponse{Action: ActionDone}
	case cellFailed:
		mClaims[claimFailed].Inc()
		return ClaimResponse{Action: ActionFailed, Error: ce.err}
	case cellLeased:
		// A claimant that already holds a lease on this cell is retrying a
		// claim whose response it never saw: re-affirm the same lease and
		// extend it, exactly like a heartbeat.
		for i := range ce.leases {
			if ce.leases[i].worker == req.Worker {
				ce.leases[i].deadline = now.Add(c.opts.LeaseTTL)
				mClaims[claimRun].Inc()
				return ClaimResponse{
					Action:    ActionRun,
					Lease:     ce.leases[i].id,
					TTLMillis: c.opts.LeaseTTL.Milliseconds(),
					Steal:     ce.leases[i].steal,
				}
			}
		}
		// The oldest live lease has been running past the steal threshold
		// and there is room for a duplicate: this claimant steals.
		if len(ce.leases) < c.opts.MaxLeases &&
			now.Sub(ce.leases[0].granted) >= c.opts.StealAfter {
			resp := c.grant(ce, w, now, true)
			mClaims[claimRun].Inc()
			return resp
		}
		mClaims[claimWait].Inc()
		return ClaimResponse{Action: ActionWait, RetryMillis: c.retryMillis()}
	default: // cellPending
		resp := c.grant(ce, w, now, false)
		mClaims[claimRun].Inc()
		return resp
	}
}

// grant issues a new lease on ce to w. Callers hold c.mu.
func (c *Coordinator) grant(ce *cell, w *workerInfo, now time.Time, steal bool) ClaimResponse {
	c.nextID++
	l := lease{
		id:       c.nextID,
		worker:   w.ID,
		granted:  now,
		deadline: now.Add(c.opts.LeaseTTL),
		steal:    steal,
	}
	ce.leases = append(ce.leases, l)
	ce.state = cellLeased
	c.nLeases++
	mLeases.Inc()
	w.Leased++
	if steal {
		c.nSteals++
		mSteals.Inc()
		w.Stolen++
	}
	return ClaimResponse{
		Action:    ActionRun,
		Lease:     l.id,
		TTLMillis: c.opts.LeaseTTL.Milliseconds(),
		Steal:     steal,
	}
}

// retryMillis suggests the longest wait-poll delay: workers poll from
// the 25 ms floor and back off up to it, and a quarter TTL bounds how
// long a waiter can miss a completion without hammering the coordinator.
// Callers hold c.mu.
func (c *Coordinator) retryMillis() int64 {
	ms := (c.opts.LeaseTTL / 4).Milliseconds()
	if ms < 25 {
		ms = 25
	}
	return ms
}

// Done handles one completion ack. Exactly one ack per cell is ever
// accepted: the first one arriving under a still-live lease. Everything
// else — expired lease, already-done cell, unknown key — is a counted
// late ack, and harmless, because the loser's bytes are identical to
// the winner's.
func (c *Coordinator) Done(req DoneRequest) DoneResponse {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)
	w := c.touchWorker(req.Worker, now)

	ce, ok := c.cells[req.Key]
	if !ok || ce.state != cellLeased {
		c.nLateAcks++
		mLateAcks.Inc()
		return DoneResponse{}
	}
	for _, l := range ce.leases {
		if l.id == req.Lease && l.worker == req.Worker {
			ce.state = cellDone
			ce.leases = nil
			c.nDone++
			mDone.Inc()
			w.Done++
			mLeaseHeld.Observe(w.ID, now.Sub(l.granted).Nanoseconds())
			return DoneResponse{Accepted: true}
		}
	}
	c.nLateAcks++
	mLateAcks.Inc()
	return DoneResponse{}
}

// Fail handles one compute-failure report. Under first-error the whole
// campaign aborts; under keep-going the cell is requeued until its
// failure budget is spent, then marked permanently failed. A stale
// lease's failure is ignored entirely — the cell already moved on.
func (c *Coordinator) Fail(req FailRequest) FailResponse {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)
	w := c.touchWorker(req.Worker, now)

	ce, ok := c.cells[req.Key]
	if !ok || ce.state != cellLeased {
		c.nLateAcks++
		mLateAcks.Inc()
		return FailResponse{Aborted: c.aborted}
	}
	idx := -1
	for i, l := range ce.leases {
		if l.id == req.Lease && l.worker == req.Worker {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.nLateAcks++
		mLateAcks.Inc()
		return FailResponse{Aborted: c.aborted}
	}
	ce.leases = append(ce.leases[:idx], ce.leases[idx+1:]...)
	ce.failures++
	w.Failed++
	if !c.opts.KeepGoing {
		ce.state = cellFailed
		ce.err = req.Error
		c.nFailed++
		mFailed.Inc()
		c.aborted = true
		c.abortErr = req.Error
		return FailResponse{Aborted: true}
	}
	if ce.failures > c.opts.MaxRetries {
		ce.state = cellFailed
		ce.err = req.Error
		c.nFailed++
		mFailed.Inc()
		return FailResponse{}
	}
	if len(ce.leases) == 0 {
		ce.state = cellPending
		c.nRequeued++
		mRequeued.Inc()
	}
	return FailResponse{}
}

// Heartbeat extends every still-live lease the worker names and reports
// the ones that are gone.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)
	c.touchWorker(req.Worker, now)

	var lost []string
	for _, ref := range req.Leases {
		alive := false
		if ce, ok := c.cells[ref.Key]; ok && ce.state == cellLeased {
			for i := range ce.leases {
				if ce.leases[i].id == ref.Lease && ce.leases[i].worker == req.Worker {
					ce.leases[i].deadline = now.Add(c.opts.LeaseTTL)
					alive = true
					break
				}
			}
		}
		if !alive {
			lost = append(lost, ref.Key)
		}
	}
	return HeartbeatResponse{Lost: lost}
}

// Manifest pre-registers cells (advisory; see ManifestRequest).
func (c *Coordinator) Manifest(req ManifestRequest) ManifestResponse {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)

	var resp ManifestResponse
	for _, mc := range req.Cells {
		if mc.Key == "" {
			continue
		}
		if _, ok := c.cells[mc.Key]; ok {
			resp.Known++
			continue
		}
		c.cells[mc.Key] = &cell{key: mc.Key, label: mc.Label}
		resp.Registered++
	}
	return resp
}

// WorkerStatus is one row of per-worker accounting in Status.
type WorkerStatus = workerInfo

// Status is a point-in-time snapshot of the campaign, served on GET
// {prefix}status and embedded in /statusz.
type Status struct {
	Cells         int            `json:"cells"`
	Pending       int            `json:"pending"`
	Leased        int            `json:"leased"`
	Done          int            `json:"done"`
	Failed        int            `json:"failed"`
	Aborted       bool           `json:"aborted"`
	AbortError    string         `json:"abort_error,omitempty"`
	LeasesGranted uint64         `json:"leases_granted"`
	Steals        uint64         `json:"steals"`
	Expired       uint64         `json:"expired"`
	Requeued      uint64         `json:"requeued"`
	LateAcks      uint64         `json:"late_acks"`
	CellsDone     uint64         `json:"cells_done"`
	CellsFailed   uint64         `json:"cells_failed"`
	Workers       []WorkerStatus `json:"workers,omitempty"`
}

// Status snapshots the campaign.
func (c *Coordinator) Status() Status {
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prune(now)

	s := Status{
		Cells:         len(c.cells),
		Aborted:       c.aborted,
		AbortError:    c.abortErr,
		LeasesGranted: c.nLeases,
		Steals:        c.nSteals,
		Expired:       c.nExpired,
		Requeued:      c.nRequeued,
		LateAcks:      c.nLateAcks,
		CellsDone:     c.nDone,
		CellsFailed:   c.nFailed,
	}
	for _, ce := range c.cells {
		switch ce.state {
		case cellPending:
			s.Pending++
		case cellLeased:
			s.Leased++
		case cellDone:
			s.Done++
		case cellFailed:
			s.Failed++
		}
	}
	for _, w := range c.workers {
		s.Workers = append(s.Workers, *w)
	}
	// Deterministic ordering for operators and tests.
	for i := 1; i < len(s.Workers); i++ {
		for j := i; j > 0 && s.Workers[j].ID < s.Workers[j-1].ID; j-- {
			s.Workers[j], s.Workers[j-1] = s.Workers[j-1], s.Workers[j]
		}
	}
	return s
}
