// Command appstudy regenerates the paper's parallel application studies
// (§IV): the MCB degradation panels (Fig. 9) and per-process resource
// consumption (Fig. 10), and the Lulesh equivalents (Figs. 11-12).
//
// Usage:
//
//	appstudy [-app mcb|lulesh|both] [-scale N] [-grid smoke|quick|paper]
//	         [-seed N] [-j N] [-progress] [-csvdir DIR] [-cache-dir DIR]
//	         [-cache-url URL] [-worker-of URL] [-telemetry ADDR]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The default -scale 8 runs a 1/8-geometry Xeon20MB with proportionally
// scaled inputs (see DESIGN.md); the printed profiles include the ×scale
// full-machine equivalents. -scale 1 runs the full geometry (slow).
// -cache-url (or $ACTIVEMEM_CACHE_URL) adds a shared labcached server as a
// best-effort remote tier; -worker-of (or $ACTIVEMEM_FLEET_URL) joins a
// distributed campaign as one worker of the fleet coordinator at that URL.
// SIGINT/SIGTERM drain in-flight cells, sync the cache tiers, write the
// profiles and exit 130; a second signal exits immediately.
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
	log.SetPrefix("appstudy: ")
	var (
		app    = flag.String("app", "both", "application: mcb, lulesh or both")
		scale  = flag.Int("scale", 8, "machine scale divisor (power of two; 1 = full Xeon20MB)")
		grid   = flag.String("grid", "quick", "experiment size: smoke, quick or paper")
		seed   = flag.Uint64("seed", 1, "experiment seed")
		csvdir = flag.String("csvdir", "", "also write each table as CSV into this directory")
	)
	cf := lab.RegisterCampaignFlags(flag.CommandLine)
	flag.Parse()
	g, err := experiments.ParseGrid(*grid)
	if err != nil {
		log.Fatal(err)
	}
	// One executor for the whole study: its memo deduplicates the shared
	// baselines and the p=1 sweeps repeated by the size panels; the
	// optional disk tier shares them across runs (e.g. with cmd/validate's
	// calibrations) and machines.
	c, err := cf.Open()
	if err != nil {
		log.Fatal(err)
	}
	opt := experiments.Options{Scale: *scale, Grid: g, Exec: c.Exec, Seed: *seed}
	fmt.Println(opt.ScaleNote())
	fmt.Printf("grid: %s\n\n", opt.Grid)

	fmt.Println("calibrating interference availability tables (§III-A, §III-C3)...")
	capAvail, bwAvail, err := experiments.StudyCalibrations(opt)
	c.Check(err)
	fmt.Print(calibrationSummary(capAvail, bwAvail))

	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvdir != "" {
			c.Check(t.SaveCSV(*csvdir, name))
		}
	}

	if *app == "mcb" || *app == "both" {
		study, err := experiments.Fig9MCB(opt)
		c.Check(err)
		for i, t := range study.Tables() {
			emit(fmt.Sprintf("fig9_panel%d", i+1), t)
		}
		prof, err := experiments.BuildProfiles(opt, study, capAvail, bwAvail, 0.05)
		c.Check(err)
		emit("fig10", prof.Table())
	}
	if *app == "lulesh" || *app == "both" {
		study, err := experiments.Fig11Lulesh(opt)
		c.Check(err)
		for i, t := range study.Tables() {
			emit(fmt.Sprintf("fig11_panel%d", i+1), t)
		}
		prof, err := experiments.BuildProfiles(opt, study, capAvail, bwAvail, 0.05)
		c.Check(err)
		emit("fig12", prof.Table())
	}
	c.Close()
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
