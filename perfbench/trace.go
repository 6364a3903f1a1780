package main

import (
	"fmt"
	"os/exec"
)

// traceLayers runs the workload's iteration once more (a warm-resume run:
// tracedPairs pairs) with every CLI profiled, then reports the exact tier
// counts, the CPU self-time of each layer and the tracing overhead.
func (r *workloadRun) traceLayers(untraced []sample) error {
	b := r.b
	b.tracing = true
	var traced []sample
	n := 1
	if r.w.kind == warmKind {
		n = tracedPairs
	}
	sw := startWatch()
	for i := 0; i < n; i++ {
		s, ok, err := r.iterate()
		if err != nil {
			return err
		}
		if ok {
			traced = append(traced, s)
		}
	}
	window := sw.stop()
	b.tracing = false
	if len(traced) == 0 {
		return fmt.Errorf("no traced iteration succeeded")
	}
	var tw, uw []float64
	for _, s := range traced {
		tw = append(tw, s.wall.within(window).net.Seconds())
	}
	for _, s := range untraced {
		uw = append(uw, s.wall.net.Seconds())
	}
	b.set("trace.overhead", median(tw)/median(uw), "ratio")
	b.samples["traced_iterations"] = len(traced)

	b.reportCounts()
	return b.reportProfile()
}

// reportCounts sums the traced processes' epilogue counters.
func (b *bench) reportCounts() {
	sum := func(kind, field string) float64 {
		var n int64
		for _, p := range b.traced {
			n += p.ep.get(kind, field)
		}
		return float64(n)
	}
	for _, c := range []struct{ metric, kind, field string }{
		{"lab.computed", "cache", "computed"},
		{"lab.mem_hits", "cache", "mem_hits"},
		{"lab.disk_hits", "cache", "disk_hits"},
		{"lab.remote_hits", "cache", "remote_hits"},
		{"lab.pool_reuses", "pool", "group_reuses"},
		{"store.gets", "store", "gets"},
		{"store.puts", "store", "puts"},
		{"store.snapshot_hits", "store", "snapshot_hits"},
		{"store.group_commits", "store", "group_commits"},
		{"remote.hits", "remote", "hits"},
		{"remote.misses", "remote", "misses"},
		{"remote.errors", "remote", "errors"},
		{"remote.puts_shed", "remote", "puts_shed"},
		{"fleet.leased", "fleet", "leased"},
		{"fleet.waited", "fleet", "waited"},
		{"fleet.stolen", "fleet", "stolen"},
	} {
		b.set(c.metric, sum(c.kind, c.field), "count")
	}
	// Cells leased by the busiest worker over all leased cells: 0.5 is an
	// even two-worker split, 1.0 one worker doing everything.
	var busiest, leased int64
	for _, p := range b.traced {
		l := p.ep.get("fleet", "leased")
		busiest = max(busiest, l)
		leased += l
	}
	share := 0.0
	if leased > 0 {
		share = float64(busiest) / float64(leased)
	}
	b.set("fleet.busiest_share", share, "ratio")
}

// reportProfile folds the traced processes' CPU profiles by package with
// `go tool pprof -top` and reports each layer's self time, plus the GC
// CPU the processes' gctrace lines account for.
func (b *bench) reportProfile() error {
	perLayer := map[string]float64{}
	for bin, files := range b.profiles {
		args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, files...)
		cmd := exec.CommandContext(b.ctx, "go", args...)
		cmd.Dir = b.runDir
		cmd.Env = append(b.childEnv(), "PPROF_TMPDIR="+b.runDir)
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go tool pprof on %d %s profiles: %v", len(files), bin, err)
		}
		perPkg, err := foldByPackage(string(out))
		if err != nil {
			return err
		}
		for pkg, s := range perPkg {
			if l := layerOf(pkg); l != "" {
				perLayer[l] += s
			}
		}
	}
	for _, l := range profiledLayers {
		b.set(l+".cpu_s", perLayer[l], "s")
	}
	var gc float64
	var cycles int
	for _, p := range b.traced {
		d, n := gcCPU(p.stderr)
		gc += d.Seconds()
		cycles += n
	}
	b.set("runtime.gc_cpu_s", gc, "s")
	b.samples["gc_cycles"] = cycles
	b.samples["profiled_processes"] = len(b.traced)
	return nil
}
