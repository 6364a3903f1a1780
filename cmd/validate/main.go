// Command validate regenerates the paper's validation section (§III):
// Tables I-II, the §III-A bandwidth calibration, the Fig. 5 model-error
// evaluation, the Fig. 6 effective-capacity panels and the Fig. 7/8
// orthogonality checks.
//
// Usage:
//
//	validate [-scale N] [-grid smoke|quick|paper] [-fig all|table1,table2,3a,5,6,7,8]
//	         [-seed N] [-j N] [-progress] [-csvdir DIR] [-cache-dir DIR]
//	         [-cache-url URL] [-worker-of URL] [-cpuprofile FILE] [-memprofile FILE]
//
// The default -scale 1 runs the full Xeon20MB geometry. -grid paper runs
// the paper's complete 660-configuration synthetic grid (slow at scale 1).
// With -cache-dir (or $ACTIVEMEM_CACHE_DIR) every finished cell persists to
// an on-disk result store, so an interrupted campaign resumes with only the
// missing cells simulated; see cmd/labcache for inspecting the store. With
// -cache-url (or $ACTIVEMEM_CACHE_URL) a shared labcached server is
// consulted after the local tiers, best-effort; see cmd/labcached. With
// -worker-of (or $ACTIVEMEM_FLEET_URL) this process joins a distributed
// campaign as one lease-holding worker of the fleet coordinator at that
// URL (labcached -coord or labcoord); N such processes split the grid
// and each still prints the full, byte-identical report.
//
// SIGINT/SIGTERM shut down gracefully: no new cells dispatch, in-flight
// cells drain and persist, the cache tiers sync, and the process exits
// 130. A second signal exits immediately.
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
	log.SetPrefix("validate: ")
	var (
		scale    = flag.Int("scale", 1, "machine scale divisor (power of two; 1 = full Xeon20MB)")
		grid     = flag.String("grid", "quick", "experiment size: smoke, quick or paper")
		figs     = flag.String("fig", "all", "comma-separated figures: table1,table2,3a,5,6,7,8 or all")
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

	// One executor for every figure: its memo cache deduplicates identical
	// cells across figures (Fig. 5's grid is the k=0 slice of Fig. 6's),
	// and the optional disk tier shares them across runs and machines.
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
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvdir != "" {
			if err := writeCSV(*csvdir, name, t); err != nil {
				log.Fatalf("csv: %v", err)
			}
		}
	}

	fmt.Println(opt.ScaleNote())
	fmt.Printf("grid: %s\n\n", opt.Grid)

	if all || want["table1"] {
		fmt.Println(experiments.TableI(opt))
	}
	if all || want["table2"] {
		emit("table2", experiments.TableII(opt))
	}
	if all || want["3a"] {
		r, err := experiments.SecIIIA(opt)
		check(err)
		emit("sec3a", r.Table())
	}
	if all || want["5"] {
		r, err := experiments.Fig5(opt)
		check(err)
		emit("fig5", r.Table())
	}
	if all || want["6"] {
		r, err := experiments.Fig6(opt)
		check(err)
		for i, t := range r.Tables() {
			emit(fmt.Sprintf("fig6_c%d", r.Computes[i]), t)
		}
	}
	if all || want["7"] {
		r, err := experiments.Fig7(opt)
		check(err)
		emit("fig7", r.Table())
	}
	if all || want["8"] {
		r, err := experiments.Fig8(opt)
		check(err)
		emit("fig8", r.Table())
	}
	cleanup()
	if *progress {
		ex.PrintPoolSummary(os.Stderr)
	}
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
