// Package cluster simulates the paper's measurement platform for parallel
// applications (§IV): MPI ranks mapped p-per-socket onto nodes of Xeon20MB
// machines connected by InfiniBand QDR, with interference threads occupying
// the spare cores of every socket.
//
// Execution is bulk-synchronous: each iteration runs one compute phase per
// socket on a persistent discrete-event engine (so cache state carries
// across iterations and interference is emergent), then resolves the
// ranks' messages and allreduce through an α/β interconnect model whose
// bulk transfers occupy the same memory buses the compute phase uses. The
// stochastic per-rank slowdowns interference induces are amplified by the
// barrier max(), reproducing the noise effect the paper cites [18], [11].
package cluster

import (
	"fmt"

	"activemem/internal/core"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/units"
)

// Cluster cells (one Run per interference level of an app study) flow
// through the lab executor's memo, so register their result type with its
// persistent disk tier.
func init() {
	lab.RegisterResult[Result]("cluster.Result")
}

// Message is one point-to-point transfer posted at the end of a compute
// phase.
type Message struct {
	To    int // destination rank
	Bytes int64
}

// Rank is one MPI process of an application proxy. It is an engine
// workload whose Step returns false when the current compute phase is
// done; BeginPhase arms the next phase.
type Rank interface {
	engine.Workload
	// BeginPhase prepares compute phase iter; after it, Step must return
	// false exactly when the phase's work is complete.
	BeginPhase(iter int)
	// Messages lists the point-to-point sends this rank posts at the end
	// of phase iter.
	Messages(iter int) []Message
	// AllreduceBytes is the payload of the per-iteration global reduction
	// (0 disables it).
	AllreduceBytes() int64
	// FootprintBytes reports the rank's resident data size.
	FootprintBytes() int64
}

// App builds the ranks of an application proxy.
type App interface {
	Name() string
	Ranks() int
	// NewRank creates rank r, allocating its buffers from alloc.
	NewRank(r int, alloc *mem.Alloc, seed uint64) Rank
}

// Interference describes the interference threads placed on each socket's
// spare cores.
type Interference struct {
	Kind    core.Kind
	Threads int
}

// RunConfig drives one cluster execution.
type RunConfig struct {
	Spec machine.Spec
	App  App

	// RanksPerSocket is the paper's p: how many ranks share each socket
	// (and its L3). App.Ranks() must be divisible by it.
	RanksPerSocket int

	Interference Interference

	// Iterations to simulate and how many of them are warmup (excluded
	// from measurement).
	Iterations, Warmup int

	// Homogeneous simulates a single representative socket and replicates
	// its per-rank compute times (plus noise) across all sockets; exact
	// mode simulates every socket. SPMD applications with identical
	// per-socket populations are statistically homogeneous, so this is the
	// default for large runs.
	Homogeneous bool

	// NoiseStd is the standard deviation of the per-rank, per-iteration
	// multiplicative compute-time jitter (OS noise; the paper's [18]).
	NoiseStd float64

	// Prewarm runs the interference daemons alone for this many cycles
	// before the first iteration, so a CSThr's buffer is already resident
	// when measurement begins (as it is in the paper, where interference
	// threads run continuously). Zero selects an automatic value covering
	// the CSThr coupon-collector bound; set negative to disable.
	Prewarm units.Cycles

	Seed uint64
}

// prewarmCycles resolves the Prewarm setting.
func (c RunConfig) prewarmCycles() units.Cycles {
	if c.Prewarm < 0 || c.Interference.Threads == 0 {
		return 0
	}
	if c.Prewarm > 0 {
		return c.Prewarm
	}
	// Auto: touching all lines of the scaled CSThr buffer takes ~N ln N
	// random accesses at ~45 cycles each.
	lines := c.Spec.L3.Size / 5 / c.Spec.LineSize()
	return units.Cycles(lines * 540)
}

// Validate checks the configuration.
func (c RunConfig) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.App == nil {
		return fmt.Errorf("cluster: nil app")
	}
	if c.RanksPerSocket <= 0 || c.App.Ranks()%c.RanksPerSocket != 0 {
		return fmt.Errorf("cluster: %d ranks not divisible into %d per socket",
			c.App.Ranks(), c.RanksPerSocket)
	}
	if c.RanksPerSocket+c.Interference.Threads > c.Spec.CoresPerSocket {
		return fmt.Errorf("cluster: %d ranks + %d interference threads exceed %d cores",
			c.RanksPerSocket, c.Interference.Threads, c.Spec.CoresPerSocket)
	}
	if c.Iterations <= c.Warmup {
		return fmt.Errorf("cluster: iterations %d must exceed warmup %d", c.Iterations, c.Warmup)
	}
	if c.NoiseStd < 0 {
		return fmt.Errorf("cluster: negative noise")
	}
	return nil
}

// Sockets returns the number of sockets the run occupies.
func (c RunConfig) Sockets() int { return c.App.Ranks() / c.RanksPerSocket }

// Nodes returns the number of nodes the run occupies.
func (c RunConfig) Nodes() int {
	s := c.Sockets()
	n := s / c.Spec.SocketsPerNode
	if s%c.Spec.SocketsPerNode != 0 {
		n++
	}
	return n
}

// SocketOf returns the socket index hosting rank r.
func (c RunConfig) SocketOf(r int) int { return r / c.RanksPerSocket }

// NodeOf returns the node index hosting rank r.
func (c RunConfig) NodeOf(r int) int { return c.SocketOf(r) / c.Spec.SocketsPerNode }

// CoreOf returns the core index of rank r within its socket.
func (c RunConfig) CoreOf(r int) int { return r % c.RanksPerSocket }

// Result summarises a cluster run.
type Result struct {
	// Seconds is the measured wall time (iterations after warmup).
	Seconds float64
	// IterSeconds is the per-iteration wall time series.
	IterSeconds []float64
	// CommSeconds is the portion of wall time the critical path spent in
	// communication.
	CommSeconds float64
	// RankL3MissRate is the mean demand L3 miss rate over rank cores of
	// the simulated socket(s) during measurement.
	RankL3MissRate float64
	// RankGBs is the mean per-socket bandwidth consumed by rank cores.
	RankGBs float64
}
