// Command perfbench is activemem's benchmark: it builds the campaign CLIs
// once, drives one workload through them and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The workloads are validate-cold, appstudy-cold, warm-resume and
// fleet-cold; BENCHMARK.json at the repository root says why each exists
// and which layer metric should move which end-to-end metric. With
// --trace 0 the result carries the end-to-end metrics, measured with no
// profiling. With --trace 1 the same workload runs once more with
// -cpuprofile on every CLI, and the result carries the per-layer metrics:
// exact counts from the CLIs' stderr epilogues, timed calls into each
// layer's public functions on the workload's own data, and CPU self-time
// per package folded from the profiles with `go tool pprof`.
//
// Every CLI's stdout is hashed; all renderings of one campaign and seed
// must agree, within the run and with every earlier run in the same
// output directory. A mismatch, a non-zero exit or a tier that did not
// serve what it should is a failed operation and makes the result
// incorrect.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// benchDir is the benchmark's directory below the repository root.
const benchDir = "perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	ctx     context.Context
	root    string // repository root
	binDir  string // built CLIs
	runDir  string // scratch for stores and profiles, removed at exit
	seed    uint64
	seconds time.Duration
	nproc   int

	servers []*server
	digests *digestBook

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int     // sample count behind each timed metric
	wallClock         map[string]float64 // plain wall-time median of each steal-net metric
	spread            map[string]float64 // within-run IQR/median of each timed metric

	// tracing, when set, makes every campaign CLI write a CPU profile and
	// GC trace; traced collects those processes for the per-layer fold.
	tracing   bool
	traceMu   sync.Mutex // fleet workers run concurrently
	nProfiles int
	traced    []procResult
	profiles  map[string][]string // binary -> profile files
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed passed to every campaign CLI as -seed")
		seconds = flag.Int("seconds", 15, "how long the timed part of the run lasts")
		trace   = flag.Int("trace", 0, "1 adds a profiled run and reports the per-layer metrics instead")
		root    = flag.String("root", ".", "repository root")
		out     = flag.String("out", ".bench_build", "build and scratch directory")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkRoot(*root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	// perfbench calls into the layers in-process too; no operator knob may
	// change what either side measures.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "ACTIVEMEM_") {
			os.Unsetenv(k)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticks0, haveTicks := readCPUTicks()
	host := collectHostFacts(*root)
	b, err := newBench(ctx, *root, *out, host.SrcSHA256, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.close()

	if err := b.build(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: build: %v\n", err)
		return 1
	}
	if err := b.runWorkload(w, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if ticks1, ok := readCPUTicks(); ok && haveTicks {
		host.StealFrac = stealFrac(ticks0, ticks1)
	}
	if *trace == 1 {
		b.set("host.steal_frac", host.StealFrac, "ratio")
	}
	if err := b.digests.save(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := b.checkMetrics(w, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	hostJSON, _ := json.Marshal(host)         // plain struct: cannot fail
	samplesJSON, _ := json.Marshal(b.samples) // map[string]int: cannot fail
	wallJSON, _ := json.Marshal(b.wallClock)  // finite medians: cannot fail
	fmt.Printf("perfbench: host %s\n", hostJSON)
	fmt.Printf("perfbench: workload %s seed %d trace %d samples %s\n", w.name, b.seed, *trace, samplesJSON)
	fmt.Printf("perfbench: wall-clock medians before removing steal %s\n", wallJSON)
	spreadJSON, _ := json.Marshal(b.spread) // finite ratios: cannot fail
	fmt.Printf("perfbench: within-run IQR/median %s\n", spreadJSON)
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err) // a NaN or Inf metric
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// checkRoot refuses to run anywhere but an activemem source tree.
func checkRoot(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module activemem\n") {
		return fmt.Errorf("%s is not the activemem repository root (no go.mod for module activemem)", root)
	}
	for _, c := range cliNames {
		if _, err := os.Stat(filepath.Join(root, "cmd", c)); err != nil {
			return fmt.Errorf("%s has no cmd/%s", root, c)
		}
	}
	return nil
}

var cliNames = []string{"validate", "appstudy", "labcached"}

func newBench(ctx context.Context, root, out, srcHash string, seed uint64, seconds time.Duration) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{
		ctx:       ctx,
		root:      root,
		binDir:    filepath.Join(out, "bin"),
		runDir:    runDir,
		seed:      seed,
		seconds:   seconds,
		nproc:     runtime.NumCPU(),
		digests:   loadDigests(filepath.Join(out, "digests-"+srcHash[:16]+".json")),
		metrics:   map[string]metric{},
		samples:   map[string]int{},
		wallClock: map[string]float64{},
		spread:    map[string]float64{},
		profiles:  map[string][]string{},
	}, nil
}

// close stops every server still running and removes the scratch space.
func (b *bench) close() {
	for _, s := range b.servers {
		s.stop()
	}
	os.RemoveAll(b.runDir)
}

// build compiles the CLIs once per run; nothing timed includes it.
func (b *bench) build() error {
	args := []string{"build", "-o", b.binDir + string(filepath.Separator)}
	for _, c := range cliNames {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(b.ctx, "go", args...)
	cmd.Dir = b.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// op records one attempted operation and whether it failed; a failure is
// reported on stderr and never retried.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// checkCLI records one CLI process as an operation: it fails on a non-zero
// exit, on stdout that differs from the campaign's reference digest for
// this seed, or when want rejects the tier counters it printed.
func (b *bench) checkCLI(what string, r procResult, campaign string, want func(epilogue) error) bool {
	err := r.err
	if err == nil {
		err = b.digests.check(fmt.Sprintf("%s seed=%d", campaign, b.seed), r.digest)
	}
	if err == nil && want != nil {
		err = want(r.ep)
	}
	return b.op(what, err)
}

// checkMetrics makes sure the result names exactly the metrics the
// benchmark declares for this mode.
func (b *bench) checkMetrics(w workload, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var missing, extra []string
	for _, m := range want {
		if got, ok := b.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		} else if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range b.metrics {
		if !declared(want, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("%s: metrics missing %v, undeclared %v", w.name, missing, extra)
	}
	return nil
}

// digestBook holds the reference stdout digest of every campaign and seed
// seen in this output directory, so renderings are compared across runs
// and workloads, not only within one run. It is keyed by source hash: a
// changed program starts a new book.
type digestBook struct {
	path string
	sums map[string]string
}

func loadDigests(path string) *digestBook {
	d := &digestBook{path: path, sums: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &d.sums); err != nil {
			d.sums = map[string]string{} // a torn book is rebuilt from this run
		}
	}
	return d
}

func (d *digestBook) check(key, sum string) error {
	if ref, ok := d.sums[key]; ok && ref != sum {
		return errors.New("stdout digest " + sum[:12] + " differs from reference " + ref[:12] + " for " + key)
	}
	d.sums[key] = sum
	return nil
}

func (d *digestBook) save() error {
	b, err := json.MarshalIndent(d.sums, "", "  ")
	if err != nil {
		return err
	}
	tmp := d.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path)
}
