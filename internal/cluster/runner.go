package cluster

import (
	"activemem/internal/core"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/mem"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
	"activemem/internal/xrand"
)

// socketSim is one simulated socket: a persistent hierarchy and engine that
// carry cache state across iterations.
type socketSim struct {
	index int
	hier  *mem.Hierarchy
	eng   *engine.Engine
	local []int // global rank ids hosted here
}

// Run executes the configured application on the simulated cluster and
// returns measured performance.
func Run(cfg RunConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	nRanks := cfg.App.Ranks()
	nSockets := cfg.Sockets()
	nSim := nSockets
	if cfg.Homogeneous {
		nSim = 1
	}

	// Build all ranks (even unsimulated ones supply message patterns) and
	// the simulated sockets.
	ranks := make([]Rank, nRanks)
	allocs := make([]*mem.Alloc, nSockets)
	for s := range allocs {
		allocs[s] = mem.NewAlloc(cfg.Spec.LineSize())
	}
	for r := 0; r < nRanks; r++ {
		ranks[r] = cfg.App.NewRank(r, allocs[cfg.SocketOf(r)], cfg.Seed+uint64(r)*13)
	}
	// Interference daemons are placed and prewarmed before the ranks, so a
	// CSThr's buffer is already L3-resident when measurement begins, as on
	// the paper's platform where interference runs continuously.
	prewarm := cfg.prewarmCycles()
	sims := make([]*socketSim, nSim)
	for s := 0; s < nSim; s++ {
		sim := &socketSim{
			index: s,
			hier:  cfg.Spec.NewSocket(cfg.Seed + uint64(s)*101),
		}
		sim.eng = engine.New(sim.hier, cfg.Spec.MSHRs)
		placeInterference(cfg, sim, allocs[s])
		if prewarm > 0 {
			sim.eng.RunUntil(prewarm)
			sim.hier.ResetStats()
		}
		for c := 0; c < cfg.RanksPerSocket; c++ {
			r := s*cfg.RanksPerSocket + c
			sim.local = append(sim.local, r)
			sim.eng.Place(c, ranks[r], cfg.Seed+uint64(r)*13+1)
		}
		sims[s] = sim
	}

	comm := newCommModel(cfg)
	buses := func(socket int) *mem.Bus {
		if socket < nSim {
			return sims[socket].hier.Bus
		}
		return nil
	}
	noise := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)

	start := make([]units.Cycles, nRanks)
	finish := make([]units.Cycles, nRanks)
	durSim := make([]units.Cycles, cfg.RanksPerSocket*nSim)
	for r := range start {
		start[r] = prewarm
	}

	var res Result
	var commCritical units.Cycles
	wallPrev, wallBoundary := prewarm, prewarm

	// Compute phases are independent per socket: each iteration runs them
	// as one batch on a private executor with a worker per simulated
	// socket, whose resident pool persists across iterations. The
	// single-socket homogeneous case runs inline. A private executor, not
	// the caller's: a cluster cell already occupies one of its workers.
	ex := lab.New(lab.Config{Workers: len(sims)})
	defer ex.Close()

	for iter := 0; iter < cfg.Iterations; iter++ {
		err := ex.RunLabeled("cluster compute phase", len(sims), func(s int) error {
			runPhase(cfg, sims[s], ranks, start, durSim, iter)
			return nil
		})
		if err != nil {
			return Result{}, err
		}

		// Per-rank finish times: simulated durations (replicated across
		// sockets in homogeneous mode) plus OS noise. Noise is drawn for
		// every rank in order, keeping the stream deterministic.
		for r := 0; r < nRanks; r++ {
			var dur units.Cycles
			if cfg.Homogeneous {
				dur = durSim[cfg.CoreOf(r)]
			} else {
				dur = durSim[cfg.SocketOf(r)*cfg.RanksPerSocket+cfg.CoreOf(r)]
			}
			if cfg.NoiseStd > 0 {
				eps := noise.NormFloat64() * cfg.NoiseStd
				if eps < -0.9 {
					eps = -0.9
				}
				dur = units.Cycles(float64(dur) * (1 + eps))
			}
			finish[r] = start[r] + dur
		}

		// Communication: point-to-point arrivals plus the allreduce.
		arrival := make([]units.Cycles, nRanks)
		copy(arrival, finish)
		var maxFinish units.Cycles
		for r := 0; r < nRanks; r++ {
			if finish[r] > maxFinish {
				maxFinish = finish[r]
			}
			for _, msg := range ranks[r].Messages(iter) {
				if msg.To < 0 || msg.To >= nRanks || msg.To == r {
					continue
				}
				done := comm.deliver(r, msg.To, msg.Bytes, finish[r], buses)
				if done > arrival[msg.To] {
					arrival[msg.To] = done
				}
			}
		}
		barrier := comm.allreduce(finish, ranks[0].AllreduceBytes())
		var wall units.Cycles
		for r := 0; r < nRanks; r++ {
			next := arrival[r]
			if barrier > next {
				next = barrier
			}
			start[r] = next
			if next > wall {
				wall = next
			}
		}

		if iter == cfg.Warmup-1 {
			for _, sim := range sims {
				sim.hier.ResetStats()
			}
			wallBoundary = wall
		} else if iter >= cfg.Warmup {
			res.IterSeconds = append(res.IterSeconds, cfg.Spec.Clock.Seconds(wall-wallPrev))
			commCritical += wall - maxFinish
		}
		wallPrev = wall
	}

	res.Seconds = cfg.Spec.Clock.Seconds(wallPrev - wallBoundary)
	res.CommSeconds = cfg.Spec.Clock.Seconds(commCritical)

	// Aggregate rank-core counters over simulated sockets.
	var l3Accs, l3Miss, busBytes int64
	for _, sim := range sims {
		for c := 0; c < cfg.RanksPerSocket; c++ {
			ctr := sim.hier.PerCore[c]
			l3Accs += ctr.L3Accesses()
			l3Miss += ctr.MemAccs
			busBytes += ctr.BusBytes
		}
	}
	if l3Accs > 0 {
		res.RankL3MissRate = float64(l3Miss) / float64(l3Accs)
	}
	if res.Seconds > 0 {
		res.RankGBs = float64(busBytes) / float64(nSim) / res.Seconds / 1e9
	}
	return res, nil
}

// runPhase arms and executes one compute phase on a socket.
func runPhase(cfg RunConfig, sim *socketSim, ranks []Rank, start []units.Cycles,
	durSim []units.Cycles, iter int) {
	for c, r := range sim.local {
		ranks[r].BeginPhase(iter)
		sim.eng.Rearm(c)
		if t := start[r]; t > sim.eng.Ctx(c).Now() {
			sim.eng.SetClock(c, t)
		}
	}
	sim.eng.Run(nil)
	for c, r := range sim.local {
		d := sim.eng.Ctx(c).Now() - start[r]
		if d < 0 {
			d = 0
		}
		durSim[sim.index*cfg.RanksPerSocket+c] = d
	}
}

// placeInterference installs the configured interference daemons on the
// socket's spare cores.
func placeInterference(cfg RunConfig, sim *socketSim, alloc *mem.Alloc) {
	for i := 0; i < cfg.Interference.Threads; i++ {
		coreIdx := cfg.RanksPerSocket + i
		seed := cfg.Seed + 900 + uint64(sim.index)*17 + uint64(i)
		switch cfg.Interference.Kind {
		case core.Storage:
			sim.eng.PlaceDaemon(coreIdx,
				interfere.NewCSThr(interfere.DefaultCSConfig(cfg.Spec.L3.Size), alloc), seed)
		case core.Bandwidth:
			sim.eng.PlaceDaemon(coreIdx,
				interfere.NewBWThr(interfere.DefaultBWConfig(cfg.Spec.L3.Size), alloc), seed)
		}
	}
}
