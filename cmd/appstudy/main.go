// Command appstudy regenerates the paper's parallel application studies
// (§IV): the MCB degradation panels (Fig. 9) and per-process resource
// consumption (Fig. 10), and the Lulesh equivalents (Figs. 11-12).
//
// Usage:
//
//	appstudy [-app mcb|lulesh|both] [-scale N] [-grid smoke|quick|paper]
//	         [-seed N] [-j N] [-progress] [-csvdir DIR] [-cache-dir DIR]
//	         [-cache-url URL] [-worker-of URL] [-cpuprofile FILE] [-memprofile FILE]
//
// The default -scale 8 runs a 1/8-geometry Xeon20MB with proportionally
// scaled inputs (see DESIGN.md); the printed profiles include the ×scale
// full-machine equivalents. -scale 1 runs the full geometry (slow).
// -cache-url (or $ACTIVEMEM_CACHE_URL) adds a shared labcached server as a
// best-effort remote tier; -worker-of (or $ACTIVEMEM_FLEET_URL) joins a
// distributed campaign as one worker of the fleet coordinator at that URL.
// SIGINT/SIGTERM drain in-flight cells, sync the
// cache tiers and exit 130; a second signal exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"activemem/internal/experiments"
	"activemem/internal/lab"
	"activemem/internal/prof"
	"activemem/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("appstudy: ")
	var (
		app      = flag.String("app", "both", "application: mcb, lulesh or both")
		scale    = flag.Int("scale", 8, "machine scale divisor (power of two; 1 = full Xeon20MB)")
		grid     = flag.String("grid", "quick", "experiment size: smoke, quick or paper")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		jobs     = flag.Int("j", 0, "parallel experiment cells (0 = all CPUs, 1 = serial)")
		progress = flag.Bool("progress", false, "report per-batch experiment progress on stderr")
		csvdir   = flag.String("csvdir", "", "also write each table as CSV into this directory")
		cacheDir = flag.String("cache-dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
			"persist results to this on-disk store and resume from it (default $ACTIVEMEM_CACHE_DIR)")
		cacheURL = flag.String("cache-url", os.Getenv("ACTIVEMEM_CACHE_URL"),
			"also consult a labcached server at this URL as a best-effort remote tier (default $ACTIVEMEM_CACHE_URL)")
		workerOf = flag.String("worker-of", os.Getenv("ACTIVEMEM_FLEET_URL"),
			"run as one worker of the fleet coordinator at this URL (default $ACTIVEMEM_FLEET_URL); implies -cache-url there unless set")
	)
	profFlags := prof.RegisterFlags()
	telemetryAddr := lab.RegisterTelemetryFlag()
	flag.Parse()

	stopProf, err := profFlags.Start()
	check(err)
	defer stopProf()

	// One executor for the whole study: its memo cache deduplicates the
	// shared baselines and the p=1 sweeps repeated by the size panels; the
	// optional disk tier shares them across runs (e.g. with cmd/validate's
	// calibrations) and machines.
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
	opt := experiments.Options{
		Scale: *scale,
		Grid:  parseGrid(*grid),
		Exec:  ex,
		Seed:  *seed,
	}
	fmt.Println(opt.ScaleNote())
	fmt.Printf("grid: %s\n\n", opt.Grid)

	fmt.Println("calibrating interference availability tables (§III-A, §III-C3)...")
	capAvail, bwAvail, err := experiments.StudyCalibrations(opt)
	check(err)
	fmt.Print(calibrationSummary(capAvail, bwAvail))

	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvdir != "" {
			check(writeCSV(*csvdir, name, t))
		}
	}

	if *app == "mcb" || *app == "both" {
		study, err := experiments.Fig9MCB(opt)
		check(err)
		for i, t := range study.Tables() {
			emit(fmt.Sprintf("fig9_panel%d", i+1), t)
		}
		prof, err := experiments.BuildProfiles(opt, study, capAvail, bwAvail, 0.05)
		check(err)
		emit("fig10", prof.Table())
	}
	if *app == "lulesh" || *app == "both" {
		study, err := experiments.Fig11Lulesh(opt)
		check(err)
		for i, t := range study.Tables() {
			emit(fmt.Sprintf("fig11_panel%d", i+1), t)
		}
		prof, err := experiments.BuildProfiles(opt, study, capAvail, bwAvail, 0.05)
		check(err)
		emit("fig12", prof.Table())
	}
	cleanup()
	if *progress {
		ex.PrintPoolSummary(os.Stderr)
	}
}

func calibrationSummary(capAvail, bwAvail []float64) string {
	var b strings.Builder
	b.WriteString("effective L3 per CSThr count (MB):")
	for _, v := range capAvail {
		fmt.Fprintf(&b, " %.2f", v/(1<<20))
	}
	b.WriteString("\navailable GB/s per BWThr count:  ")
	for _, v := range bwAvail {
		fmt.Fprintf(&b, " %.2f", v)
	}
	b.WriteString("\n\n")
	return b.String()
}

func parseGrid(s string) experiments.Grid {
	switch s {
	case "smoke":
		return experiments.GridSmoke
	case "quick":
		return experiments.GridQuick
	case "paper":
		return experiments.GridPaper
	default:
		log.Fatalf("unknown grid %q (want smoke, quick or paper)", s)
		return experiments.GridQuick
	}
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

func writeCSV(dir, name string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
