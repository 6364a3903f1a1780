package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// campaign is one report a CLI renders; every rendering of a campaign for
// one seed must print the same bytes, whichever tier served its cells.
type campaign struct {
	id   string // digest-book key
	bin  string
	args []string
}

var (
	validateSmoke = campaign{"validate -grid smoke -scale 8", "validate", []string{"-grid", "smoke", "-scale", "8"}}
	appstudySmoke = campaign{"appstudy -grid smoke", "appstudy", []string{"-grid", "smoke"}}
	// table1 renders no cells: it is the cheapest complete CLI run, used to
	// create an empty store and to time process start-up.
	table1 = campaign{"validate -fig table1", "validate", []string{"-fig", "table1"}}
)

type kind int

const (
	coldKind  kind = iota // one process computes every cell into a fresh store
	warmKind              // resume pairs served by a filled labcached
	fleetKind             // two -worker-of processes under a fresh coordinator
)

type workload struct {
	name string
	camp campaign
	kind kind
}

var workloads = []workload{
	{"validate-cold", validateSmoke, coldKind},
	{"appstudy-cold", appstudySmoke, coldKind},
	{"warm-resume", validateSmoke, warmKind},
	{"fleet-cold", validateSmoke, fleetKind},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return s
}

const (
	coldSetupReps  = 15 // empty stores created (and timed) before a cold run
	fleetSetupReps = 15 // coordinator starts timed before a fleet run
	warmSetupReps  = 3  // labcached start + cold fill, timed
	resumePairs    = 20 // resume pairs after a cold or fleet run
	tracedPairs    = 16 // profiled resume pairs of a traced warm-resume run
)

// coordFlags set the fleet coordinator's lease TTL. A waiting worker
// polls every quarter TTL (jittered down to an eighth); at labcached's
// 15s default the last poll alone spreads a ~11s campaign's wall time by
// up to 3.75s, which would drown any change to the program.
var coordFlags = []string{"-lease-ttl", "5s"}

// sample is one timed iteration of a workload: one cold campaign, one
// resume pair, or one fleet campaign.
type sample struct {
	wall  elapsed
	cpu   time.Duration // every process of the iteration, labcached included
	rssKB int64         // largest max-RSS among those processes
	cells int64         // cells resolved, summed over the processes
}

// workloadRun is the state one workload keeps across its phases.
type workloadRun struct {
	b *bench
	w workload

	setup        []elapsed     // set-up times
	stores       []string      // empty stores ready for cold campaigns
	last         string        // store holding the last finished campaign's cells
	srv          *server       // labcached holding the campaign (warm set-up, resume phase)
	srvCPU       time.Duration // srv's CPU when the timed window opened
	resumeRemote []elapsed     // remote-served resume latencies
	resumeLocal  []elapsed     // local-store resume latencies
	keepDir      string        // the last resume pair's filled local store
}

var errFailed = errors.New("operation failed")

func (b *bench) runWorkload(w workload, traced bool) error {
	r := &workloadRun{b: b, w: w}
	if err := r.setUp(); err != nil {
		return err
	}
	if r.srv != nil {
		r.srvCPU = r.srv.cpu()
	}
	sw := startWatch()
	samples, err := r.repeat(b.seconds)
	if err != nil {
		return err
	}
	window := sw.stop()
	for i := range samples {
		samples[i].wall = samples[i].wall.within(window)
	}
	allWithin(r.resumeRemote, window)
	allWithin(r.resumeLocal, window)
	if len(samples) == 0 {
		return errors.New("no iteration succeeded")
	}
	if w.kind == warmKind {
		// The server's CPU is read once around the whole window: its
		// clock-tick resolution is too coarse for a single pair.
		r.apportionServer(samples)
	} else if err := r.resumePhase(); err != nil {
		return err
	}
	if !traced {
		r.reportEndToEnd(samples)
		return nil
	}
	if err := r.traceLayers(samples); err != nil {
		return err
	}
	return b.probeLayers(r.keepDir, r.srv)
}

func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.runDir, prefix+"-")
}

// argv renders a campaign's command line for this run's seed.
func (b *bench) argv(c campaign, jobs int, extra ...string) []string {
	a := append([]string{}, c.args...)
	a = append(a, "-seed", strconv.FormatUint(b.seed, 10), "-j", strconv.Itoa(jobs))
	return append(a, extra...)
}

// cli runs a campaign CLI; while tracing, it also writes a CPU profile and a
// GC trace and is kept for the per-layer fold.
func (b *bench) cli(bin string, args []string) procResult {
	if !b.tracing {
		return b.runCLI(bin, args)
	}
	b.traceMu.Lock()
	prof := filepath.Join(b.runDir, fmt.Sprintf("cpu-%d.pprof", b.nProfiles))
	b.nProfiles++
	b.traceMu.Unlock()
	args = append(append([]string{}, args...), "-cpuprofile", prof, "-progress")
	r := b.runCLI(bin, args, "GODEBUG=gctrace=1")
	b.traceMu.Lock()
	defer b.traceMu.Unlock()
	b.traced = append(b.traced, r)
	b.profiles[bin] = append(b.profiles[bin], prof)
	return r
}

// repeat iterates until the time budget is spent, stopping before an
// iteration that is expected to end more than half an iteration late. At
// least one iteration runs. Failed iterations count against the run but
// contribute no sample.
func (r *workloadRun) repeat(budget time.Duration) ([]sample, error) {
	var out []sample
	start := time.Now()
	for n := 1; ; n++ {
		s, ok, err := r.iterate()
		if err == nil {
			err = r.b.ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s)
		}
		el := time.Since(start)
		if el+el/time.Duration(2*n) > budget {
			return out, nil
		}
	}
}

// setUp prepares the workload and times the set-up a user of it pays.
func (r *workloadRun) setUp() error {
	b := r.b
	sw := startWatch()
	defer func() { allWithin(r.setup, sw.stop()) }()
	switch r.w.kind {
	case coldKind:
		for i := 0; i < coldSetupReps; i++ {
			if err := r.newStore(); err != nil {
				return err
			}
		}
	case fleetKind:
		for i := 0; i < fleetSetupReps; i++ {
			dir, err := b.tempDir("coord")
			if err != nil {
				return err
			}
			s, t, err := b.startServer(dir, coordFlags...)
			if err != nil {
				return err
			}
			r.setup = append(r.setup, t)
			s.stop()
		}
	case warmKind:
		for i := 0; i < warmSetupReps; i++ {
			if r.srv != nil {
				r.srv.stop()
			}
			dir, err := b.tempDir("served")
			if err != nil {
				return err
			}
			local, err := b.tempDir("fill")
			if err != nil {
				return err
			}
			fill := startWatch()
			s, _, err := b.startServer(dir)
			if err != nil {
				return err
			}
			r.srv = s
			p := b.cli(r.w.camp.bin, b.argv(r.w.camp, b.nproc, "-cache-dir", local, "-cache-url", s.url))
			r.setup = append(r.setup, fill.stop())
			if !b.checkCLI("cold fill", p, r.w.camp.id, wantFill) {
				return errFailed // every later pair would compute instead of resuming
			}
		}
	}
	return nil
}

// newStore creates one empty store through the CLI, as a user starting a
// campaign does, and times it.
func (r *workloadRun) newStore() error {
	dir, err := r.b.tempDir("store")
	if err != nil {
		return err
	}
	p := r.b.runCLI(table1.bin, r.b.argv(table1, 1, "-cache-dir", dir))
	if !r.b.checkCLI("store create", p, table1.id, wantEmptyStore) {
		return errFailed
	}
	r.stores = append(r.stores, dir)
	r.setup = append(r.setup, p.wall)
	return nil
}

// iterate runs one timed iteration of the workload.
func (r *workloadRun) iterate() (sample, bool, error) {
	switch r.w.kind {
	case coldKind:
		return r.coldCampaign()
	case warmKind:
		a, bb, ok, err := r.pair(r.srv)
		return sample{
			wall:  a.wall.add(bb.wall),
			cpu:   a.cpu + bb.cpu,
			rssKB: max(a.rssKB, bb.rssKB),
			cells: a.ep.resolved() + bb.ep.resolved(),
		}, ok, err
	default:
		return r.fleetCampaign()
	}
}

func (r *workloadRun) coldCampaign() (sample, bool, error) {
	b := r.b
	if len(r.stores) == 0 {
		if err := r.newStore(); err != nil {
			return sample{}, false, err
		}
	}
	dir := r.stores[0]
	r.stores = r.stores[1:]
	p := b.cli(r.w.camp.bin, b.argv(r.w.camp, b.nproc, "-cache-dir", dir))
	if r.last != "" {
		os.RemoveAll(r.last)
	}
	r.last = dir
	ok := b.checkCLI("cold campaign", p, r.w.camp.id, wantCold)
	return sample{wall: p.wall, cpu: p.cpu, rssKB: p.rssKB, cells: p.ep.resolved()}, ok, nil
}

// fleetCampaign starts a coordinator on an empty store (its start is set-up
// time), runs two single-threaded workers against it, and stops it.
func (r *workloadRun) fleetCampaign() (sample, bool, error) {
	b := r.b
	dir, err := b.tempDir("coord")
	if err != nil {
		return sample{}, false, err
	}
	s, _, err := b.startServer(dir, coordFlags...)
	if err != nil {
		return sample{}, false, err
	}
	var wdirs [2]string
	for i := range wdirs {
		if wdirs[i], err = b.tempDir("worker"); err != nil {
			s.stop()
			return sample{}, false, err
		}
	}
	var (
		wg    sync.WaitGroup
		procs [2]procResult
	)
	sw := startWatch()
	for i := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			procs[i] = b.cli(r.w.camp.bin, b.argv(r.w.camp, 1, "-cache-dir", wdirs[i], "-worker-of", s.url))
		}()
	}
	wg.Wait()
	wall := sw.stop()
	coord := s.stop()
	for _, d := range wdirs {
		os.RemoveAll(d)
	}
	if r.last != "" {
		os.RemoveAll(r.last)
	}
	r.last = dir

	ok := true
	smp := sample{wall: wall, cpu: coord.cpu, rssKB: coord.rssKB}
	var computed, done int64
	for i, p := range procs {
		ok = b.checkCLI(fmt.Sprintf("fleet worker %d", i), p, r.w.camp.id, wantWorker) && ok
		smp.cpu += p.cpu
		smp.rssKB = max(smp.rssKB, p.rssKB)
		smp.cells += p.ep.resolved()
		computed += p.ep.get("cache", "computed")
		done += p.ep.get("fleet", "done")
	}
	if ok {
		// Exactly one completion of record per computed cell: a cell two
		// workers both computed would show as computed > done.
		var err error
		if computed != done || computed == 0 {
			err = fmt.Errorf("workers computed %d cells but the coordinator recorded %d completions", computed, done)
		}
		ok = b.op("fleet campaign accounting", err)
	}
	return smp, ok, nil
}

// pair runs one resume pair against srv: a fresh store with the remote tier
// (every cell a remote hit, written through locally), then the same store
// alone (every cell a disk hit). It records both latencies.
func (r *workloadRun) pair(srv *server) (a, bb procResult, ok bool, err error) {
	b := r.b
	dir, err := b.tempDir("resume")
	if err != nil {
		return a, bb, false, err
	}
	a = b.cli(r.w.camp.bin, b.argv(r.w.camp, b.nproc, "-cache-dir", dir, "-cache-url", srv.url))
	okA := b.checkCLI("remote resume", a, r.w.camp.id, wantRemoteResume)
	bb = b.cli(r.w.camp.bin, b.argv(r.w.camp, b.nproc, "-cache-dir", dir))
	okB := b.checkCLI("local resume", bb, r.w.camp.id, wantLocalResume)
	if r.keepDir != "" {
		os.RemoveAll(r.keepDir)
	}
	r.keepDir = dir
	if okA {
		r.resumeRemote = append(r.resumeRemote, a.wall)
	}
	if okB {
		r.resumeLocal = append(r.resumeLocal, bb.wall)
	}
	return a, bb, okA && okB, nil
}

// resumePhase re-renders a cold or fleet campaign from its own results: a
// labcached on the store the last campaign filled serves a few resume
// pairs. The server stays up for the layer probes.
func (r *workloadRun) resumePhase() error {
	s, _, err := r.b.startServer(r.last)
	if err != nil {
		return err
	}
	r.srv = s
	r.last = "" // the server owns it now; later campaigns must not remove it
	sw := startWatch()
	for i := 0; i < resumePairs; i++ {
		if _, _, _, err := r.pair(s); err != nil {
			return err
		}
	}
	window := sw.stop()
	allWithin(r.resumeRemote, window)
	allWithin(r.resumeLocal, window)
	return nil
}

// apportionServer adds the warm server's CPU over the timed window, shared
// evenly, to every pair, and its resident high-water mark to each pair's
// peak.
func (r *workloadRun) apportionServer(samples []sample) {
	cpu := r.srv.cpu() - r.srvCPU
	rss := r.srv.peakRSSKB()
	for i := range samples {
		samples[i].cpu += cpu / time.Duration(len(samples))
		samples[i].rssKB = max(samples[i].rssKB, rss)
	}
}

func (r *workloadRun) reportEndToEnd(samples []sample) {
	var rate, cpu, rss []float64
	var wall []elapsed
	for _, s := range samples {
		wall = append(wall, s.wall)
		rate = append(rate, float64(s.cells)/s.wall.net.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		rss = append(rss, float64(s.rssKB)/1024)
	}
	b := r.b
	b.setElapsed("wall_s", wall, time.Second, "s")
	b.set("cells_per_s", median(rate), "1/s")
	b.set("cpu_s", median(cpu), "s")
	b.set("peak_rss_mb", median(rss), "MB")
	b.setElapsed("setup_s", r.setup, time.Second, "s")
	b.setElapsed("resume_remote_ms", r.resumeRemote, time.Millisecond, "ms")
	b.setElapsed("resume_local_ms", r.resumeLocal, time.Millisecond, "ms")
	b.samples["iterations"] = len(samples)
	b.samples["setup"] = len(r.setup)
	b.samples["resume_pairs"] = len(r.resumeRemote)
}

// setElapsed reports the median of timed intervals net of steal, and
// records their plain wall-time median beside the result.
func (b *bench) setElapsed(name string, xs []elapsed, per time.Duration, unit string) {
	var raw, net []float64
	for _, e := range xs {
		raw = append(raw, float64(e.raw)/float64(per))
		net = append(net, float64(e.net)/float64(per))
	}
	b.set(name, median(net), unit)
	b.wallClock[name] = median(raw)
	if q1, q2, q3 := quartiles(net); len(net) > 1 {
		b.spread[name] = (q3 - q1) / q2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The wantX checks say which tiers must have served a CLI's cells; a tier
// that silently stopped serving changes what is measured, so it is a
// failure like a wrong report.

func wantEmptyStore(ep epilogue) error {
	if !ep.has("cache") || ep.get("cache", "entries") != 0 || ep.get("cache", "computed") != 0 {
		return fmt.Errorf("expected an empty store and no computed cells, got %v", ep["cache"])
	}
	return nil
}

func wantCold(ep epilogue) error {
	c := ep["cache"]
	if c == nil || c["computed"] == 0 || c["disk_hits"]+c["hot_hits"]+c["remote_hits"] != 0 {
		return fmt.Errorf("expected every cell computed, got %v", c)
	}
	return nil
}

func wantFill(ep epilogue) error {
	if err := wantCold(ep); err != nil {
		return err
	}
	rm := ep["remote"]
	if rm == nil || rm["errors"]+rm["puts_dropped"]+rm["puts_shed"] != 0 {
		return fmt.Errorf("expected every computed cell written back to the server, got %v", rm)
	}
	return nil
}

func wantRemoteResume(ep epilogue) error {
	c := ep["cache"]
	if c == nil || c["computed"] != 0 || c["remote_hits"] == 0 || ep.get("remote", "errors") != 0 {
		return fmt.Errorf("expected every cell served by the remote tier, got %v %v", c, ep["remote"])
	}
	return nil
}

func wantLocalResume(ep epilogue) error {
	c := ep["cache"]
	if c == nil || c["computed"] != 0 || c["remote_hits"] != 0 || c["disk_hits"]+c["hot_hits"] == 0 {
		return fmt.Errorf("expected every cell served by the local store, got %v", c)
	}
	return nil
}

func wantWorker(ep epilogue) error {
	f := ep["fleet"]
	if f == nil || f["degraded"]+f["solo"]+f["rpc_errors"]+f["lost"] != 0 || ep.get("remote", "errors") != 0 {
		return fmt.Errorf("expected a healthy fleet worker, got %v %v", f, ep["remote"])
	}
	return nil
}
