package main

import (
	"cmp"
	"fmt"
	"sync/atomic"
	"time"

	"activemem/internal/apps/mcb"
	"activemem/internal/cluster"
	"activemem/internal/core"
	"activemem/internal/engine"
	"activemem/internal/fleet"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/remote"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
	"activemem/internal/xrand"
)

// probeOps is the sample count of every timed call with a p99: the highest
// percentile that keeps at least ten samples beyond it at this count.
const probeOps = 1000

// Timed calls from perfbench into each layer's public functions. Each is
// made on the workload's data where the layer has any: the store the last
// resume pair filled, and the labcached that served it. The simulator
// probes use the run's seed.
func (b *bench) probeLayers(storeDir string, srv *server) error {
	b.probeMem()
	b.probeEngine()
	b.probeCluster()
	b.probeLab()
	recs, err := b.probeStore(storeDir)
	if err != nil {
		return err
	}
	if err := b.probeRemote(srv, recs); err != nil {
		return err
	}
	if err := b.probeFleet(srv); err != nil {
		return err
	}
	b.probeStart()
	return nil
}

// chunked times fn over chunks of ops calls and returns the median per-call
// time in nanoseconds; a chunk is long enough to dwarf the clock read.
func chunked(chunks, ops int, fn func(i int)) float64 {
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			fn(c*ops + i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// probeMem times Hierarchy.Access on a 1/8-scale socket with CSThr-like
// uniform random lines over twice the L3, and Prefetcher.Observe on the
// same kind of stream (no stream ever confirms: the allocate path).
func (b *bench) probeMem() {
	spec := machine.Scaled(8)
	const chunks, ops = 200, 4096
	r := xrand.New(b.seed)
	lines := spec.L3.Size * 2 / spec.LineSize()
	addrs := make([]mem.Addr, chunks*ops)
	for i := range addrs {
		addrs[i] = mem.Addr(int64(r.Intn(int(lines))) * spec.LineSize())
	}
	h := spec.NewSocket(b.seed)
	now := units.Cycles(0)
	b.set("mem.access_ns", chunked(chunks, ops, func(i int) {
		_, lat := h.Access(0, addrs[i], now, false)
		now += lat
	}), "ns")
	p := mem.NewPrefetcher(mem.DefaultPrefetch())
	b.set("mem.prefetch_observe_ns", chunked(chunks, ops, func(i int) {
		p.Observe(mem.Line(int64(addrs[i]) / spec.LineSize()))
	}), "ns")
	b.samples["mem.access_ns"] = chunks
	b.samples["mem.prefetch_observe_ns"] = chunks
}

// probeEngine times Engine.RunUntil in 1000-cycle steps with one CSThr
// daemon on the 1/8-scale socket.
func (b *bench) probeEngine() {
	spec := machine.Scaled(8)
	e := engine.New(spec.NewSocket(b.seed), spec.MSHRs)
	e.PlaceDaemon(0, interfere.NewCSThr(interfere.DefaultCSConfig(spec.L3.Size), mem.NewAlloc(64)), 2)
	horizon := units.Cycles(0)
	const chunks, steps = 200, 20
	b.set("engine.csthr_step_ns", chunked(chunks, steps, func(int) {
		horizon += 1000
		e.RunUntil(horizon)
	}), "ns")
	b.samples["engine.csthr_step_ns"] = chunks
}

// probeCluster times exact-mode cluster.Run of MCB on 4 simulated sockets
// under storage interference, per bulk-synchronous iteration.
func (b *bench) probeCluster() {
	spec := machine.Scaled(8)
	const runs, iters = 3, 6
	var per []float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		_, err := cluster.Run(cluster.RunConfig{
			Spec: spec, App: mcb.New(mcb.DefaultParams(spec.L3.Size, 8, 2400)), RanksPerSocket: 2,
			Interference: cluster.Interference{Kind: core.Storage, Threads: 2},
			Iterations:   iters, Warmup: 2, NoiseStd: 0.005, Seed: b.seed,
		})
		if b.op("cluster.Run probe", err) {
			per = append(per, ms(time.Since(start))/iters)
		}
	}
	b.set("cluster.iteration_ms", median(per), "ms")
	b.samples["cluster.iteration_ms"] = len(per)
}

// probeLab times Executor.Run of a batch of eight no-op jobs on an
// executor as wide as the workloads' -j.
func (b *bench) probeLab() {
	ex := lab.New(lab.Config{Workers: b.nproc})
	defer ex.Close()
	var sink atomic.Int64
	var per []float64
	var firstErr error
	for i := 0; i < probeOps; i++ {
		start := time.Now()
		err := ex.Run(8, func(j int) error { sink.Add(int64(j)); return nil })
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3)
		firstErr = cmp.Or(firstErr, err)
	}
	b.op("Executor.Run probe", firstErr)
	b.set("lab.dispatch_us", median(per), "us")
	b.samples["lab.dispatch_us"] = len(per)
}

// record is one stored cell.
type record struct {
	key, typ string
	payload  []byte
}

// probeStore times opening the filled store as the CLIs do, Get of its
// cells, and Put of its payloads under fresh keys into a new store. It
// returns the cells for the remote probes.
func (b *bench) probeStore(dir string) ([]record, error) {
	var opens []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		st, err := lab.OpenCacheSized(dir, lab.HotBytesFromEnv())
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
		opens = append(opens, ms(time.Since(start)))
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	b.set("store.open_ms", median(opens), "ms")
	b.samples["store.open_ms"] = len(opens)

	st, err := lab.OpenCacheSized(dir, lab.HotBytesFromEnv())
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, e := range st.Entries() {
		typ, payload, ok := st.Get(e.Key)
		if !ok {
			st.Close()
			return nil, fmt.Errorf("store lists %s but cannot get it", e.Key)
		}
		recs = append(recs, record{e.Key, typ, payload})
	}
	if len(recs) == 0 {
		st.Close()
		return nil, fmt.Errorf("store %s holds no cells", dir)
	}
	gets := make([]float64, 0, probeOps)
	var firstErr error
	for i := 0; i < probeOps; i++ {
		k := recs[i%len(recs)].key
		start := time.Now()
		_, _, ok := st.Get(k)
		gets = append(gets, float64(time.Since(start).Nanoseconds())/1e3)
		if !ok {
			firstErr = cmp.Or(firstErr, fmt.Errorf("miss on stored key %s", k))
		}
	}
	b.op("Store.Get probe", firstErr)
	if err := st.Close(); err != nil {
		return nil, err
	}
	b.setTail("store.get_us", gets, "us")

	fresh, err := b.tempDir("put-probe")
	if err != nil {
		return nil, err
	}
	ps, err := lab.OpenCacheSized(fresh, lab.HotBytesFromEnv())
	if err != nil {
		return nil, err
	}
	puts := make([]float64, 0, probeOps)
	firstErr = nil
	for i := 0; i < probeOps; i++ {
		rec := recs[i%len(recs)]
		k := string(lab.KeyOf("perfbench store put", b.seed, i))
		start := time.Now()
		_, err := ps.Put(k, rec.typ, rec.payload)
		puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
		firstErr = cmp.Or(firstErr, err)
	}
	b.op("Store.Put probe", firstErr)
	if err := ps.Close(); err != nil {
		return nil, err
	}
	b.setTail("store.put_us", puts, "us")
	return recs, nil
}

// probeRemote times remote.Client Put (fresh keys, the workload's
// payloads) and Get (the workload's cells) against the workload's
// labcached.
func (b *bench) probeRemote(srv *server, recs []record) error {
	c, err := remote.New(remote.Options{BaseURL: srv.url, Schema: lab.ResultSchemaVersion})
	if err != nil {
		return err
	}
	defer c.Close()
	puts := make([]float64, 0, probeOps)
	var firstErr error
	for i := 0; i < probeOps; i++ {
		rec := recs[i%len(recs)]
		k := string(lab.KeyOf("perfbench remote put", b.seed, i))
		start := time.Now()
		ok := c.Put(k, rec.typ, rec.payload)
		puts = append(puts, ms(time.Since(start)))
		if !ok {
			firstErr = cmp.Or(firstErr, fmt.Errorf("server did not store %s", k))
		}
	}
	b.op("remote.Client.Put probe", firstErr)
	gets := make([]float64, 0, probeOps)
	firstErr = nil
	for i := 0; i < probeOps; i++ {
		k := recs[i%len(recs)].key
		start := time.Now()
		_, _, ok := c.Get(k)
		gets = append(gets, ms(time.Since(start)))
		if !ok {
			firstErr = cmp.Or(firstErr, fmt.Errorf("server missed stored key %s", k))
		}
	}
	b.op("remote.Client.Get probe", firstErr)
	b.setTail("remote.put_ms", puts, "ms")
	b.setTail("remote.get_ms", gets, "ms")
	return nil
}

// probeFleet times one lease round trip, Claim then Done of a fresh key,
// against the workload's labcached coordinator.
func (b *bench) probeFleet(srv *server) error {
	c, err := fleet.NewClient(fleet.ClientOptions{BaseURL: srv.url, Worker: "perfbench-probe"})
	if err != nil {
		return err
	}
	defer c.Close()
	rtts := make([]float64, 0, probeOps)
	var firstErr error
	for i := 0; i < probeOps; i++ {
		k := string(lab.KeyOf("perfbench fleet claim", b.seed, i))
		start := time.Now()
		d := c.Claim(k, "perfbench")
		acked := d.Action == fleet.ActionRun && c.Done(k)
		rtts = append(rtts, ms(time.Since(start)))
		if !acked {
			firstErr = cmp.Or(firstErr, fmt.Errorf("claim of fresh key %s answered %q or its ack was refused", k, d.Action))
		}
	}
	b.op("fleet Claim/Done probe", firstErr)
	b.setTail("fleet.claim_ms", rtts, "ms")
	return nil
}

// probeStart times a zero-cell CLI run: process start, flag parsing and
// the Table I render, nothing else.
func (b *bench) probeStart() {
	var per []float64
	for i := 0; i < 21; i++ {
		p := b.runCLI(table1.bin, b.argv(table1, 1))
		if b.checkCLI("proc start", p, table1.id, nil) {
			per = append(per, ms(p.wall.net))
		}
	}
	b.set("proc.start_ms", median(per), "ms")
	b.samples["proc.start_ms"] = len(per)
}

// tailLadder are the percentiles a timed call may report.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// setTail reports a timed call's median and 99th percentile. A p99 with
// fewer than ten samples beyond it is left out, which fails the run's
// metric check rather than reporting one unlucky call as a percentile.
func (b *bench) setTail(name string, xs []float64, unit string) {
	b.set(name+".p50", percentile(xs, 0.50), unit)
	if highestPercentile(len(xs), tailLadder) >= 0.99 {
		b.set(name+".p99", percentile(xs, 0.99), unit)
	}
	b.samples[name] = len(xs)
}
