package main

import (
	"slices"
	"strings"
)

// metricDecl names one reported metric and its unit. BENCHMARK.json at the
// repository root declares the same lists; a test keeps them in step.
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"wall_s", "s"},
	{"cells_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"resume_remote_ms", "ms"},
	{"resume_local_ms", "ms"},
}

var perLayer = []metricDecl{
	{"mem.cpu_s", "s"},
	{"mem.access_ns", "ns"},
	{"mem.prefetch_observe_ns", "ns"},
	{"engine.cpu_s", "s"},
	{"engine.csthr_step_ns", "ns"},
	{"workload.cpu_s", "s"},
	{"apps.cpu_s", "s"},
	{"cluster.cpu_s", "s"},
	{"cluster.iteration_ms", "ms"},
	{"core.cpu_s", "s"},
	{"dist.cpu_s", "s"},
	{"experiments.cpu_s", "s"},
	{"lab.cpu_s", "s"},
	{"lab.dispatch_us", "us"},
	{"lab.computed", "count"},
	{"lab.mem_hits", "count"},
	{"lab.disk_hits", "count"},
	{"lab.remote_hits", "count"},
	{"lab.pool_reuses", "count"},
	{"store.cpu_s", "s"},
	{"store.open_ms", "ms"},
	{"store.get_us.p50", "us"},
	{"store.get_us.p99", "us"},
	{"store.put_us.p50", "us"},
	{"store.put_us.p99", "us"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.snapshot_hits", "count"},
	{"store.group_commits", "count"},
	{"remote.cpu_s", "s"},
	{"remote.get_ms.p50", "ms"},
	{"remote.get_ms.p99", "ms"},
	{"remote.put_ms.p50", "ms"},
	{"remote.put_ms.p99", "ms"},
	{"remote.hits", "count"},
	{"remote.misses", "count"},
	{"remote.errors", "count"},
	{"remote.puts_shed", "count"},
	{"fleet.cpu_s", "s"},
	{"fleet.claim_ms.p50", "ms"},
	{"fleet.claim_ms.p99", "ms"},
	{"fleet.leased", "count"},
	{"fleet.waited", "count"},
	{"fleet.stolen", "count"},
	{"fleet.busiest_share", "ratio"},
	{"runtime.gc_cpu_s", "s"},
	{"proc.start_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"host.steal_frac", "ratio"},
}

// profiledLayers are the packages whose CPU self-time is reported as
// <layer>.cpu_s; a package below activemem/internal/<layer>/ counts toward
// its top directory (workload/interfere -> workload, apps/mcb -> apps).
var profiledLayers = []string{
	"mem", "engine", "workload", "apps", "cluster", "core", "dist",
	"experiments", "lab", "store", "remote", "fleet",
}

const modulePrefix = "activemem/internal/"

// layerOf maps a package import path to its profiled layer, "" if none.
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, modulePrefix)
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	if slices.Contains(profiledLayers, top) {
		return top
	}
	return ""
}

func declared(list []metricDecl, name string) bool {
	return slices.ContainsFunc(list, func(m metricDecl) bool { return m.name == name })
}
