// Command validate regenerates the paper's validation section (§III):
// Tables I-II, the §III-A bandwidth calibration, the Fig. 5 model-error
// evaluation, the Fig. 6 effective-capacity panels and the Fig. 7/8
// orthogonality checks.
//
// Usage:
//
//	validate [-scale N] [-grid smoke|quick|paper] [-fig all|table1,table2,3a,5,6,7,8]
//	         [-seed N] [-j N] [-progress] [-csvdir DIR] [-cache-dir DIR]
//	         [-cache-url URL] [-worker-of URL] [-telemetry ADDR]
//	         [-cpuprofile FILE] [-memprofile FILE]
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
// URL (a labcached, which serves leases by default); N such processes
// split the grid and each still prints the full, byte-identical report.
//
// SIGINT/SIGTERM shut down gracefully: no new cells dispatch, in-flight
// cells drain and persist, the cache tiers sync, the profiles are
// written, and the process exits 130. A second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"activemem/internal/experiments"
	"activemem/internal/lab"
	"activemem/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	var (
		scale  = flag.Int("scale", 1, "machine scale divisor (power of two; 1 = full Xeon20MB)")
		grid   = flag.String("grid", "quick", "experiment size: smoke, quick or paper")
		figs   = flag.String("fig", "all", "comma-separated figures: table1,table2,3a,5,6,7,8 or all")
		seed   = flag.Uint64("seed", 1, "experiment seed")
		csvdir = flag.String("csvdir", "", "also write each table as CSV into this directory")
	)
	cf := lab.RegisterCampaignFlags(flag.CommandLine)
	flag.Parse()
	g, err := experiments.ParseGrid(*grid)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cf.Open()
	if err != nil {
		log.Fatal(err)
	}
	opt := experiments.Options{Scale: *scale, Grid: g, Exec: c.Exec, Seed: *seed}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvdir != "" {
			c.Check(t.SaveCSV(*csvdir, name))
		}
	}

	fmt.Println(opt.ScaleNote())
	fmt.Printf("grid: %s\n\n", opt.Grid)

	if all || want["table1"] {
		fmt.Println(experiments.TableI(opt))
	}
	if all || want["table2"] {
		t, err := experiments.TableII(opt)
		c.Check(err)
		emit("table2", t)
	}
	if all || want["3a"] {
		r, err := experiments.SecIIIA(opt)
		c.Check(err)
		emit("sec3a", r.Table())
	}
	if all || want["5"] {
		r, err := experiments.Fig5(opt)
		c.Check(err)
		emit("fig5", r.Table())
	}
	if all || want["6"] {
		r, err := experiments.Fig6(opt)
		c.Check(err)
		for i, t := range r.Tables() {
			emit(fmt.Sprintf("fig6_c%d", r.Computes[i]), t)
		}
	}
	if all || want["7"] {
		r, err := experiments.Fig7(opt)
		c.Check(err)
		emit("fig7", r.Table())
	}
	if all || want["8"] {
		r, err := experiments.Fig8(opt)
		c.Check(err)
		emit("fig8", r.Table())
	}
	c.Close()
}
