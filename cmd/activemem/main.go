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
//	          [-cache-dir DIR] [-cache-url URL] [-worker-of URL]
//	          [-knee F] [-knee-patience M] [-telemetry ADDR]
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
// the fleet coordinator at that URL. SIGINT/SIGTERM drain in-flight
// cells, sync the cache tiers, write the profiles and exit 130.
//
// Example:
//
//	activemem -workload uniform -buf 8388608 -compute 10 -scale 8 \
//	          -predict-l3 1.25 -predict-bw 8
package main

import (
	"flag"
	"fmt"
	"log"

	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
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
		knee      = flag.Float64("knee", 0, "adaptive sweeps: stop past this slowdown threshold (0 = measure every level)")
		patience  = flag.Int("knee-patience", 2, "consecutive over-threshold levels that stop an adaptive sweep")
	)
	cf := lab.RegisterCampaignFlags(flag.CommandLine)
	flag.Parse()

	// An adaptive sweep must measure at least as deep as the profile's
	// knee search looks: a sweep stopped at a shallower slowdown would
	// make the profile's "never degraded" branch claim bounds the skipped
	// levels were never allowed to refute.
	if *knee > 0 && *knee < *threshold {
		log.Printf("warning: -knee %g is below -threshold %g; using %g", *knee, *threshold, *threshold)
		*knee = *threshold
	}
	spec := machine.Scaled(*scale)
	if *buf == 0 {
		*buf = spec.L3.Size * 2
	}
	factory, name, err := buildWorkload(*workload, *buf, *compute, spec)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cf.Open()
	if err != nil {
		log.Fatal(err)
	}
	ex := c.Exec
	fmt.Println(spec.TableI())

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
	c.Check(err)
	bandwidth, err := core.RunSweep(core.SweepConfig{
		MeasureConfig: cfg, Kind: core.Bandwidth, MaxThreads: 2, Exec: ex,
		Knee: *knee, KneePatience: *patience,
	}, name, factory)
	c.Check(err)

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
	c.Check(err)
	bwCal, err := core.CalibrateBandwidth(core.MeasureConfig{
		Spec: spec, Warmup: 2_000_000, Window: 6_000_000, Seed: *seed,
	}, 2, interfere.BWConfig{}, ex)
	c.Check(err)

	prof, err := core.BuildProfile(name, 1, *threshold,
		storage, capCal.AvailableBytes(), bandwidth, bwCal.AvailableGBs)
	c.Check(err)
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
	c.Close()
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

func buildWorkload(kind string, buf int64, compute int, spec machine.Spec) (core.WorkloadFactory, string, error) {
	mkDist := func(mk func(int64) dist.Dist) core.WorkloadFactory {
		return func(alloc *mem.Alloc, seed uint64) engine.Workload {
			return synthetic.New(synthetic.Config{
				Dist: mk(buf / 4), ElemSize: 4, ComputePerLoad: compute,
			}, alloc)
		}
	}
	switch kind {
	case "uniform":
		return mkDist(func(n int64) dist.Dist { return dist.NewUniform(n) }), "uniform", nil
	case "norm4":
		return mkDist(func(n int64) dist.Dist { return dist.NewNormal(n, 4) }), "norm4", nil
	case "norm8":
		return mkDist(func(n int64) dist.Dist { return dist.NewNormal(n, 8) }), "norm8", nil
	case "exp4":
		return mkDist(func(n int64) dist.Dist { return dist.NewExponential(n, 4) }), "exp4", nil
	case "pchase":
		return func(alloc *mem.Alloc, seed uint64) engine.Workload {
			return pchase.New(pchase.Config{
				BufBytes: buf, LineSize: spec.LineSize(), Seed: seed,
			}, alloc)
		}, "pchase", nil
	default:
		return nil, "", fmt.Errorf("unknown workload %q", kind)
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
