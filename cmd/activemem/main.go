// Command activemem measures a workload's memory resource consumption with
// the Active Measurement methodology: it sweeps storage (CSThr) and
// bandwidth (BWThr) interference, reports the degradation curves, derives a
// resource profile, and optionally predicts performance on a hypothetical
// machine.
//
// Usage:
//
//	activemem [-workload uniform|norm4|norm8|exp4|pchase] [-buf BYTES]
//	          [-compute N] [-scale N] [-threshold F] [-j N] [-progress]
//	          [-predict-l3 MB] [-predict-bw GBS] [-seed N]
//	          [-cache-dir DIR] [-cache-url URL]
//	          [-worker-of URL] [-knee F] [-knee-patience M]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -knee switches the interference sweeps to adaptive mode: levels run in
// ascending order and stop once the slowdown exceeds the given threshold
// for -knee-patience consecutive levels, skipping deep-interference cells
// when only the degradation knee is wanted. -cache-dir persists every
// measured cell so repeated invocations (or other commands sharing the
// directory) skip simulation; -cache-url (or $ACTIVEMEM_CACHE_URL) adds a
// shared labcached server as a best-effort remote tier; -worker-of (or
// $ACTIVEMEM_FLEET_URL) joins a distributed campaign as one worker of
// the fleet coordinator at that URL. SIGINT/SIGTERM
// drain in-flight cells, sync the cache tiers and exit 130.
//
// Example:
//
//	activemem -workload uniform -buf 8388608 -compute 10 -scale 8 \
//	          -predict-l3 1.25 -predict-bw 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/prof"
	"activemem/internal/report"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
	"activemem/internal/workload/pchase"
	"activemem/internal/workload/synthetic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("activemem: ")
	var (
		workload  = flag.String("workload", "uniform", "workload: uniform, norm4, norm8, exp4 or pchase")
		buf       = flag.Int64("buf", 0, "workload buffer bytes (default: 2x the machine's L3)")
		compute   = flag.Int("compute", 1, "integer adds per load (synthetic workloads)")
		scale     = flag.Int("scale", 8, "machine scale divisor (1 = full Xeon20MB)")
		threshold = flag.Float64("threshold", 0.05, "slowdown threshold defining the degradation knee")
		predictL3 = flag.Float64("predict-l3", 0, "predict slowdown with this much L3 (MB, 0 = skip)")
		predictBW = flag.Float64("predict-bw", 0, "predict slowdown with this much bandwidth (GB/s)")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		jobs      = flag.Int("j", 0, "parallel experiment cells (0 = all CPUs, 1 = serial)")
		progress  = flag.Bool("progress", false, "report per-batch experiment progress on stderr")
		cacheDir  = flag.String("cache-dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
			"persist results to this on-disk store and resume from it (default $ACTIVEMEM_CACHE_DIR)")
		cacheURL = flag.String("cache-url", os.Getenv("ACTIVEMEM_CACHE_URL"),
			"also consult a labcached server at this URL as a best-effort remote tier (default $ACTIVEMEM_CACHE_URL)")
		workerOf = flag.String("worker-of", os.Getenv("ACTIVEMEM_FLEET_URL"),
			"run as one worker of the fleet coordinator at this URL (default $ACTIVEMEM_FLEET_URL); implies -cache-url there unless set")
		knee     = flag.Float64("knee", 0, "adaptive sweeps: stop past this slowdown threshold (0 = measure every level)")
		patience = flag.Int("knee-patience", 2, "consecutive over-threshold levels that stop an adaptive sweep")
	)
	profFlags := prof.RegisterFlags()
	telemetryAddr := lab.RegisterTelemetryFlag()
	flag.Parse()

	stopProf, err := profFlags.Start()
	check(err)
	defer stopProf()

	// An adaptive sweep must measure at least as deep as the profile's
	// knee search looks: a sweep stopped at a shallower slowdown would
	// make the profile's "never degraded" branch claim bounds the skipped
	// levels were never allowed to refute.
	if *knee > 0 && *knee < *threshold {
		log.Printf("warning: -knee %g is below -threshold %g; using %g", *knee, *threshold, *threshold)
		*knee = *threshold
	}

	cache, err := lab.OpenCache(*cacheDir)
	check(err)
	// A fleet worker publishes results through the shared cache its peers
	// read from; the coordinator address doubles as that cache unless the
	// operator split them explicitly (labcached -coord serves both).
	if *workerOf != "" && *cacheURL == "" {
		*cacheURL = *workerOf
	}
	rc, err := lab.OpenRemote(*cacheURL)
	check(err)
	fc, err := lab.OpenFleet(*workerOf)
	check(err)
	ex := lab.New(lab.Config{Workers: *jobs, Progress: lab.StderrProgress(*progress),
		Cache: cache, Remote: rc, Fleet: fc})
	stopSignals := lab.NotifyShutdown(ex, os.Stderr)
	defer stopSignals()
	// Every exit path — the end of main and the fatal path (check) alike —
	// drains and closes the tiers, so even an interrupted or failed
	// campaign leaves its finished cells in the store and its write-backs
	// delivered. The epilogue is printed only after the remote tier has
	// drained, so its write-back counters are final.
	cleanup = func() {
		ex.Close()
		if fc != nil {
			fc.Close()
		}
		rc.Close()
		ex.PrintCacheSummary(os.Stderr)
		if cache != nil {
			cache.Close()
		}
	}
	stopTelemetry, err := lab.StartTelemetry(*telemetryAddr, ex, os.Stderr)
	check(err)
	defer stopTelemetry()
	spec := machine.Scaled(*scale)
	if *buf == 0 {
		*buf = spec.L3.Size * 2
	}
	fmt.Println(spec.TableI())

	factory, name := buildWorkload(*workload, *buf, *compute, spec)
	cfg := core.MeasureConfig{
		Spec:   spec,
		Warmup: 30_000_000 * units.Cycles(8/clampScale(*scale)),
		Window: 12_000_000 * units.Cycles(8/clampScale(*scale)),
		Seed:   *seed,
	}

	fmt.Printf("measuring %s (buffer %s, %d adds/load)...\n\n",
		name, units.FormatBytes(*buf), *compute)

	storage, err := core.RunSweep(core.SweepConfig{
		MeasureConfig: cfg, Kind: core.Storage, MaxThreads: 5, Exec: ex,
		Knee: *knee, KneePatience: *patience,
	}, name, factory)
	check(err)
	bandwidth, err := core.RunSweep(core.SweepConfig{
		MeasureConfig: cfg, Kind: core.Bandwidth, MaxThreads: 2, Exec: ex,
		Knee: *knee, KneePatience: *patience,
	}, name, factory)
	check(err)

	printSweep("storage interference (CSThr)", storage)
	printSweep("bandwidth interference (BWThr)", bandwidth)

	// Availability tables for the profile.
	bufs, _ := core.DefaultCalibrationGrid(spec, 2)
	ds := core.Table2Constructors()
	capCal, err := core.CalibrateCapacity(core.CalibrationConfig{
		MeasureConfig: cfg, MaxThreads: 5, BufferBytes: bufs,
		Dists:          []func(int64) dist.Dist{ds[9]},
		ComputePerLoad: 1, ElemSize: 4, Exec: ex,
	})
	check(err)
	bwCal, err := core.CalibrateBandwidth(core.MeasureConfig{
		Spec: spec, Warmup: 2_000_000, Window: 6_000_000, Seed: *seed,
	}, 2, interfere.BWConfig{}, ex)
	check(err)

	prof, err := core.BuildProfile(name, 1, *threshold,
		storage, capCal.AvailableBytes(), bandwidth, bwCal.AvailableGBs)
	check(err)
	fmt.Println(prof.String())

	if *predictL3 > 0 || *predictBW > 0 {
		l3 := *predictL3 * float64(units.MB)
		if l3 == 0 {
			l3 = float64(spec.L3.Size)
		}
		bw := *predictBW
		if bw == 0 {
			bw = spec.PeakBandwidthGBs()
		}
		s := prof.PredictSlowdown(l3, bw)
		fmt.Printf("predicted slowdown with %.2f MB L3 and %.2f GB/s: %.1f%%\n",
			l3/float64(units.MB), bw, s*100)
	}
	cleanup()
	if *progress {
		ex.PrintPoolSummary(os.Stderr)
	}
}

func clampScale(s int) units.Cycles {
	if s > 8 {
		return 8
	}
	if s < 1 {
		return 1
	}
	return units.Cycles(s)
}

func buildWorkload(kind string, buf int64, compute int, spec machine.Spec) (core.WorkloadFactory, string) {
	mkDist := func(mk func(int64) dist.Dist) core.WorkloadFactory {
		return func(alloc *mem.Alloc, seed uint64) engine.Workload {
			return synthetic.New(synthetic.Config{
				Dist: mk(buf / 4), ElemSize: 4, ComputePerLoad: compute,
			}, alloc)
		}
	}
	switch kind {
	case "uniform":
		return mkDist(func(n int64) dist.Dist { return dist.NewUniform(n) }), "uniform"
	case "norm4":
		return mkDist(func(n int64) dist.Dist { return dist.NewNormal(n, 4) }), "norm4"
	case "norm8":
		return mkDist(func(n int64) dist.Dist { return dist.NewNormal(n, 8) }), "norm8"
	case "exp4":
		return mkDist(func(n int64) dist.Dist { return dist.NewExponential(n, 4) }), "exp4"
	case "pchase":
		return func(alloc *mem.Alloc, seed uint64) engine.Workload {
			return pchase.New(pchase.Config{
				BufBytes: buf, LineSize: spec.LineSize(), Seed: seed,
			}, alloc)
		}, "pchase"
	default:
		log.Fatalf("unknown workload %q", kind)
		return nil, ""
	}
}

func printSweep(title string, s core.Sweep) {
	t := report.NewTable(title, "threads", "work/s", "slowdown", "app L3 miss", "app GB/s", "bus util")
	sl := s.Slowdowns()
	for k, p := range s.Points {
		t.Addf(k, p.Rate, fmt.Sprintf("%+.1f%%", sl[k]*100), p.L3MissRate, p.AppGBs, p.BusUtil)
	}
	fmt.Println(t.String())
	lastOK, firstDeg := s.Knee(0.05)
	fmt.Printf("  knee: no degradation through %d threads; first degradation at %d\n\n",
		lastOK, firstDeg)
}

// cleanup, when set, drains the executor, closes the cache tiers and prints
// the epilogue. main ends with it, and the fatal exits below run it because
// log.Fatal/os.Exit skip the defers.
var cleanup func()

func check(err error) {
	if err == nil {
		return
	}
	if cleanup != nil {
		cleanup()
	}
	if errors.Is(err, lab.ErrInterrupted) {
		log.Println("interrupted: finished cells are persisted; rerun with the same flags to resume")
		os.Exit(130)
	}
	log.Fatal(err)
}
