package activemem

// Golden determinism tests: these snapshots pin the simulator's emitted
// counters for fixed seeds, so that hot-path rewrites (SoA cache layout,
// scheduler changes, batched access paths) are provably bit-identical.
// The goldens were captured before the PR 2 hot-path overhaul and must
// never change without an explicit semantic change to the simulator.
//
// If a golden fails, the diff IS the bug: tie-break order, RNG draw order
// (including PolicyRandom victims) or counter accounting drifted.

import (
	"fmt"
	"strings"
	"testing"

	"activemem/internal/apps/lulesh"
	"activemem/internal/apps/mcb"
	"activemem/internal/cluster"
	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/workload/interfere"
	"activemem/internal/workload/pchase"
	"activemem/internal/workload/stream"
	"activemem/internal/workload/synthetic"
)

// snapshotCounters renders every per-core counter block plus the shared L3
// and bus statistics in a stable textual form.
func snapshotCounters(h *mem.Hierarchy, cores int) string {
	var b strings.Builder
	for c := 0; c < cores; c++ {
		ctr := h.PerCore[c]
		fmt.Fprintf(&b, "core%d L=%d S=%d L1=%d L2=%d L3=%d Mem=%d Bytes=%d Wait=%d Pf=%d\n",
			c, ctr.Loads, ctr.Stores, ctr.L1Hits, ctr.L2Hits, ctr.L3Hits,
			ctr.MemAccs, ctr.BusBytes, ctr.BusWaitCycles, ctr.Prefetches)
	}
	s := h.L3.Stats
	fmt.Fprintf(&b, "L3 hits=%d miss=%d evict=%d wb=%d inval=%d occ=%d\n",
		s.Hits, s.Misses, s.Evictions, s.Writebacks, s.Invalidations, h.L3.Occupancy())
	bs := h.Bus.Stats
	fmt.Fprintf(&b, "bus req=%d bytes=%d busy=%d wait=%d\n",
		bs.Requests, bs.Bytes, bs.BusyCycles, bs.WaitCycles)
	return b.String()
}

// goldenMixedSocket is the counter snapshot of a five-workload socket: the
// full interleaving of synthetic, CSThr, BWThr, pchase and stream through
// the shared L3 and bus, warmup 1M cycles, window 2M cycles, seed 1.
const goldenMixedSocket = `core0 L=8198 S=0 L1=4 L2=40 L3=391 Mem=7763 Bytes=575744 Wait=222606 Pf=0
core1 L=16912 S=16912 L1=17055 L2=959 L3=9098 Mem=6712 Bytes=485760 Wait=58464 Pf=6
core2 L=33924 S=0 L1=0 L2=81 L3=933 Mem=32910 Bytes=2827200 Wait=12732 Pf=5362
core3 L=7822 S=0 L1=0 L2=0 L3=0 Mem=7822 Bytes=578112 Wait=232060 Pf=0
core4 L=102240 S=51120 L1=134190 L2=4505 L3=0 Mem=14665 Bytes=1362752 Wait=323136 Pf=4509
L3 hits=10422 miss=69872 evict=76821 wb=11338 inval=0 occ=40960
bus req=91087 bytes=5829568 busy=910870 wait=997463
`

func TestGoldenMixedSocketCounters(t *testing.T) {
	spec := machine.Scaled(8)
	h := spec.NewSocket(1)
	e := engine.New(h, spec.MSHRs)
	alloc := mem.NewAlloc(spec.LineSize())

	e.PlaceDaemon(0, synthetic.New(synthetic.Config{
		Dist: dist.NewNormal(spec.L3.Size*2/4, 4), ElemSize: 4, ComputePerLoad: 1,
	}, alloc), 2)
	e.PlaceDaemon(1, interfere.NewCSThr(interfere.DefaultCSConfig(spec.L3.Size), alloc), 3)
	e.PlaceDaemon(2, interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc), 4)
	e.PlaceDaemon(3, pchase.New(pchase.Config{
		BufBytes: spec.L3.Size * 4, LineSize: spec.LineSize(), Seed: 5,
	}, alloc), 5)
	e.PlaceDaemon(4, stream.New(stream.Config{
		ArrayBytes: spec.L3.Size * 2, ElemSize: 8, BatchElems: 16,
	}, alloc), 6)

	e.RunUntil(1_000_000)
	h.ResetStats()
	e.RunUntil(3_000_000)

	got := snapshotCounters(h, 5)
	if got != goldenMixedSocket {
		t.Errorf("mixed-socket counters drifted.\ngot:\n%s\nwant:\n%s", got, goldenMixedSocket)
	}
}

// goldenRandomPolicy pins the RNG victim draw order of PolicyRandom (and the
// FIFO insertion-order scan) under eviction pressure.
const goldenRandomPolicy = `core0 L=16000 S=16000 L1=16131 L2=882 L3=10564 Mem=4423 Bytes=299008 Wait=28910 Pf=8
core1 L=25432 S=0 L1=0 L2=58 L3=1585 Mem=23789 Bytes=1872448 Wait=3210 Pf=3509
L3 hits=12149 miss=28212 evict=14101 wb=2157 inval=0 occ=40960
bus req=33929 bytes=2171456 busy=339290 wait=34735
csheld=6303
`

func TestGoldenRandomPolicyCounters(t *testing.T) {
	spec := machine.Scaled(8)
	spec.L3.Policy = mem.PolicyRandom
	spec.L2.Policy = mem.PolicyFIFO
	h := spec.NewSocket(7)
	e := engine.New(h, spec.MSHRs)
	alloc := mem.NewAlloc(spec.LineSize())

	cs := interfere.NewCSThr(interfere.DefaultCSConfig(spec.L3.Size), alloc)
	e.PlaceDaemon(0, cs, 8)
	e.PlaceDaemon(1, interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc), 9)

	e.RunUntil(1_000_000)
	h.ResetStats()
	e.RunUntil(2_500_000)

	lo, hi := cs.BufferRange(spec.LineSize())
	got := snapshotCounters(h, 2) +
		fmt.Sprintf("csheld=%d\n", h.L3.CountLinesIn(lo, hi))
	if got != goldenRandomPolicy {
		t.Errorf("random-policy counters drifted.\ngot:\n%s\nwant:\n%s", got, goldenRandomPolicy)
	}
}

// goldenPrefetcher pins the prefetcher's training decisions across its two
// nearest-scan regimes: the default 32-stream configuration (served by the
// bucketed stream index) and an 8-stream configuration (served by the linear
// fallback scan). The workload mix covers every Observe path — sequential
// triad streams that lock and emit, a peaked-normal sampler that retrains,
// and a pointer chase whose random misses thrash the allocation path — so a
// drifted tie-break, stamp width or index bucket boundary shows up as a
// counter diff here.
const goldenPrefetcher = `streams=32
core0 L=63872 S=31936 L1=83832 L2=5743 L3=0 Mem=6233 Bytes=816128 Wait=103224 Pf=5749
core1 L=4192 S=0 L1=5 L2=29 L3=168 Mem=3990 Bytes=265472 Wait=83452 Pf=0
core2 L=4044 S=0 L1=0 L2=0 L3=1 Mem=4043 Bytes=267200 Wait=86248 Pf=0
core3 L=16984 S=0 L1=0 L2=70 L3=541 Mem=16373 Bytes=1333504 Wait=2144 Pf=3753
L3 hits=710 miss=30639 evict=19753 wb=1770 inval=0 occ=40960
bus req=41911 bytes=2682304 busy=419110 wait=324362
issued=80692
streams=8
core0 L=64256 S=32128 L1=84336 L2=5767 L3=0 Mem=6281 Bytes=812096 Wait=89970 Pf=5773
core1 L=4245 S=0 L1=5 L2=29 L3=179 Mem=4032 Bytes=266240 Wait=73438 Pf=0
core2 L=4077 S=0 L1=0 L2=0 L3=0 Mem=4077 Bytes=270144 Wait=78614 Pf=0
core3 L=16984 S=0 L1=0 L2=12865 L3=151 Mem=3968 Bytes=1183040 Wait=1709 Pf=13862
L3 hits=330 miss=18358 evict=16211 wb=1562 inval=0 occ=40957
bus req=39555 bytes=2531520 busy=395550 wait=299472
issued=145124
`

func TestGoldenPrefetcherStreams(t *testing.T) {
	var b strings.Builder
	for _, streams := range []int{32, 8} {
		spec := machine.Scaled(8)
		spec.Prefetch.Streams = streams
		h := spec.NewSocket(21)
		e := engine.New(h, spec.MSHRs)
		alloc := mem.NewAlloc(spec.LineSize())

		e.PlaceDaemon(0, stream.New(stream.Config{
			ArrayBytes: spec.L3.Size * 2, ElemSize: 8, BatchElems: 16,
		}, alloc), 22)
		e.PlaceDaemon(1, synthetic.New(synthetic.Config{
			Dist: dist.NewNormal(spec.L3.Size, 8), ElemSize: 4, ComputePerLoad: 2,
		}, alloc), 23)
		e.PlaceDaemon(2, pchase.New(pchase.Config{
			BufBytes: spec.L3.Size * 3, LineSize: spec.LineSize(), Seed: 24,
		}, alloc), 25)
		e.PlaceDaemon(3, interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc), 26)

		e.RunUntil(500_000)
		h.ResetStats()
		e.RunUntil(1_500_000)

		var issued int64
		for c := 0; c < 4; c++ {
			issued += h.PrefetcherIssued(c)
		}
		fmt.Fprintf(&b, "streams=%d\n%sissued=%d\n",
			streams, snapshotCounters(h, 4), issued)
	}
	if got := b.String(); got != goldenPrefetcher {
		t.Errorf("prefetcher counters drifted.\ngot:\n%s\nwant:\n%s", got, goldenPrefetcher)
	}
}

// goldenApps pins the end-to-end cluster results (wall seconds, rank miss
// rate, rank bandwidth) of the two §IV application proxies under storage and
// bandwidth interference.
const goldenApps = `mcb+cs2 sec=1.021768077e-03 miss=5.526638841e-01 gbs=2.822401742e-01
mcb+bw1 sec=1.027330000e-03 miss=5.487355757e-01 gbs=2.787186201e-01
lulesh+cs2 sec=8.401738462e-04 miss=0.000000000e+00 gbs=0.000000000e+00
lulesh+bw1 sec=8.410369231e-04 miss=4.608914409e-04 gbs=9.740357142e-03
`

func TestGoldenApplicationRuns(t *testing.T) {
	spec := machine.Scaled(8)
	var b strings.Builder
	run := func(name string, app cluster.App, kind core.Kind, threads int) {
		res, err := cluster.Run(cluster.RunConfig{
			Spec: spec, App: app, RanksPerSocket: 2,
			Interference: cluster.Interference{Kind: kind, Threads: threads},
			Iterations:   4, Warmup: 2, Homogeneous: true, NoiseStd: 0.005, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s sec=%.9e miss=%.9e gbs=%.9e\n",
			name, res.Seconds, res.RankL3MissRate, res.RankGBs)
	}
	run("mcb+cs2", mcb.New(mcb.DefaultParams(spec.L3.Size, 8, 2400)), core.Storage, 2)
	run("mcb+bw1", mcb.New(mcb.DefaultParams(spec.L3.Size, 8, 2400)), core.Bandwidth, 1)
	run("lulesh+cs2", lulesh.New(lulesh.DefaultParams(spec.L3.Size, 2, 22)), core.Storage, 2)
	run("lulesh+bw1", lulesh.New(lulesh.DefaultParams(spec.L3.Size, 2, 22)), core.Bandwidth, 1)
	if got := b.String(); got != goldenApps {
		t.Errorf("application results drifted.\ngot:\n%s\nwant:\n%s", got, goldenApps)
	}
}

// goldenOverlapped pins the MSHR-limited overlapped-load path (LoadOverlapped
// / the batched access fast path) on its own: one BWThr against an otherwise
// idle socket, no warmup reset, so cold-start transients are covered too.
const goldenOverlapped = `core0 L=10208 S=0 L1=0 L2=672 L3=2 Mem=9534 Bytes=809792 Wait=1176 Pf=3119
L3 hits=2 miss=9534 evict=0 wb=0 inval=0 occ=12653
bus req=12653 bytes=809792 busy=126530 wait=2222
work=10208 now=600599
`

func TestGoldenOverlappedLoads(t *testing.T) {
	spec := machine.Scaled(8)
	h := spec.NewSocket(11)
	e := engine.New(h, spec.MSHRs)
	alloc := mem.NewAlloc(spec.LineSize())
	e.PlaceDaemon(0, interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc), 12)
	e.RunUntil(600_000)
	got := snapshotCounters(h, 1) +
		fmt.Sprintf("work=%d now=%d\n", e.Ctx(0).Work(), int64(e.Ctx(0).Now()))
	if got != goldenOverlapped {
		t.Errorf("overlapped-load counters drifted.\ngot:\n%s\nwant:\n%s", got, goldenOverlapped)
	}
}
