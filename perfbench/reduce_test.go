package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5.2, 4.9, 5.5, 5.1}, 4.95, 5.15, 5.425},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2.5, 9.75}, 0.6875, 6.125, 11.5625},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	ladder := []float64{0.5, 0.9, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},
		{20, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := highestPercentile(c.n, ladder); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Every probe with a p99 takes probeOps samples; that must support it.
	if got := highestPercentile(probeOps, tailLadder); got < 0.99 {
		t.Errorf("probeOps = %d supports only p%v", probeOps, got*100)
	}
}

func TestParseEpilogue(t *testing.T) {
	stderr := `  §III-A bandwidth ladder k=0..2: 3/3
gc 1 @0.011s 1%: 0.010+0.30+0.003 ms clock, 0.020+0.10/0.25/0+0.006 ms cpu, 3->3->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
cache: computed=0 disk_hits=0 hot_hits=0 mem_hits=6 persisted=0 remote_hits=44 entries=44 dir=/tmp/w1
store: gets=96 puts=44 hot_hits=0 snapshot_hits=0 slow_gets=48 group_commits=44 grouped_appends=44
remote: gets=48 hits=44 misses=4 errors=0 corrupt=0 breaker_opens=0 breaker_fastfails=0 puts_stored=0 puts_dropped=0 puts_shed=2 url=http://127.0.0.1:45009
remote: warning: 2 computed results never reached the cache server (0 dropped queue-full, 2 shed while the tier was down or disabled)
fleet: worker=vm-9116 leased=0 stolen=0 waited=4 done=0 late_acks=0 lost=0 degraded=0 solo=0 rpc_errors=0 url=http://127.0.0.1:45009
pool: workers=2 worker_spawns=2 group_reuses=4
`
	ep := parseEpilogue(stderr)
	for _, c := range []struct {
		kind, field string
		want        int64
	}{
		{"cache", "remote_hits", 44},
		{"cache", "mem_hits", 6},
		{"cache", "entries", 44},
		{"store", "gets", 96},
		{"store", "group_commits", 44},
		{"remote", "misses", 4},
		{"remote", "puts_shed", 2},
		{"fleet", "waited", 4},
		{"pool", "group_reuses", 4},
	} {
		if got := ep.get(c.kind, c.field); got != c.want {
			t.Errorf("%s %s = %d, want %d", c.kind, c.field, got, c.want)
		}
	}
	if _, ok := ep["fleet"]["worker"]; ok {
		t.Error("non-numeric worker= field was kept")
	}
	if got := ep.resolved(); got != 50 {
		t.Errorf("resolved = %d, want 50", got)
	}
	if ep.has("gc") || !ep.has("pool") {
		t.Errorf("kinds parsed: %v", ep)
	}
}

func TestFoldByPackageOnPprofTop(t *testing.T) {
	top, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	perPkg, err := foldByPackage(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"activemem/internal/mem":                1.30,
		"activemem/internal/engine":             0.30,
		"activemem/internal/workload/interfere": 0.20,
		"activemem/internal/apps/mcb":           0.10,
		"activemem/internal/dist":               0.10,
		"activemem/internal/lab":                0.10,
		"runtime":                               0.28,
		"sync/atomic":                           0.05,
		"activemem/internal/store":              0.04,
		"activemem/internal/model":              0.03,
		"activemem/internal/core":               0,
		"activemem/internal/experiments":        0,
	}
	var sum float64
	for pkg, v := range perPkg {
		sum += v
		if w, ok := want[pkg]; !ok || !near(v, w) {
			t.Errorf("%s = %v, want %v", pkg, v, w)
		}
	}
	if len(perPkg) != len(want) {
		t.Errorf("got %d packages, want %d: %v", len(perPkg), len(want), perPkg)
	}
	if !near(sum, 2.5) { // the fixture's "Total samples"
		t.Errorf("flat times sum to %v, want 2.5", sum)
	}
	layers := map[string]float64{}
	for pkg, v := range perPkg {
		if l := layerOf(pkg); l != "" {
			layers[l] += v
		}
	}
	if !near(layers["workload"], 0.2) || !near(layers["apps"], 0.1) || layers["model"] != 0 {
		t.Errorf("layer fold = %v", layers)
	}

	if _, err := foldByPackage("open p.pprof: no such file"); err == nil {
		t.Error("an error message parsed as a listing")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"activemem/internal/mem.(*Hierarchy).access":                       "activemem/internal/mem",
		"activemem/internal/mem.tagOf (inline)":                            "activemem/internal/mem",
		"activemem/internal/core.CalibrateCapacity.func1.2":                "activemem/internal/core",
		"activemem/internal/lab.Memo[go.shape.struct { X activemem/a.T }]": "activemem/internal/lab",
		"sync/atomic.(*Int64).Add":                                         "sync/atomic",
		"runtime.mallocgc":                                                 "runtime",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{
		"0": 0, "10ms": 0.01, "1.50s": 1.5, "2.10mins": 126, "1hrs": 3600, "350us": 350e-6,
	} {
		got, err := parseDuration(s)
		if err != nil || !near(got, want) {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseDuration("1.5x"); err == nil {
		t.Error("accepted an unknown unit")
	}
}

func TestGCCPU(t *testing.T) {
	stderr := "gc 1 @0.011s 1%: 0.010+0.30+0.003 ms clock, 0.020+0.10/0.25/0+0.006 ms cpu, 3->3->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"cache: computed=1\n" +
		"gc 2 @0.020s 2%: 0.012+0.40+0.004 ms clock, 0.5+1/2/0.5+1 ms cpu, 4->4->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)\n"
	d, n := gcCPU(stderr)
	want := time.Duration((0.020 + 0.10 + 0.25 + 0 + 0.006 + 0.5 + 1 + 2 + 0.5 + 1) * float64(time.Millisecond))
	if n != 2 || (d-want).Abs() > time.Nanosecond {
		t.Errorf("gcCPU = %v over %d cycles, want %v over 2", d, n, want)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and this package in
// step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", got, want)
	}
	check := func(kind string, decl []metricDecl, got []struct{ name, unit string }) {
		if len(got) != len(decl) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(decl))
			return
		}
		for i := range decl {
			if got[i].name != decl[i].name || got[i].unit != decl[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, perfbench %v", kind, i, got[i], decl[i])
			}
		}
	}
	var e2e, pl []struct{ name, unit string }
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		pl = append(pl, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, pl)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
