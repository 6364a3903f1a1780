package experiments

import (
	"fmt"

	"activemem/internal/apps/lulesh"
	"activemem/internal/apps/mcb"
	"activemem/internal/cluster"
	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/report"
	"activemem/internal/workload/interfere"
)

// maxStorageThreads / maxBandwidthThreads mirror the paper's experiment
// limits: up to 5 CSThrs (87% of L3) and 2 BWThrs (32% of bandwidth — more
// would bleed into storage, §III-D).
const (
	maxStorageThreads   = 5
	maxBandwidthThreads = 2
)

// appIters returns (iterations, warmup) per grid level. Warmup must cover
// the cold-start transient of the proxies' largest working sets (the MCB
// tally mesh takes many cycles of random tallies to populate).
func appIters(grid Grid) (int, int) {
	switch grid {
	case GridPaper:
		return 28, 16
	case GridQuick:
		return 18, 10
	default:
		return 8, 4
	}
}

// MappingSweep is one process-to-socket mapping's interference response
// (one curve group of the paper's Figs. 9/11 top panels).
type MappingSweep struct {
	P         int       // ranks per socket
	Storage   []float64 // seconds, indexed by CSThr count
	Bandwidth []float64 // seconds, indexed by BWThr count
}

// SizeSweep is one input size's interference response at one rank per
// socket (the bottom panels of Figs. 9/11).
type SizeSweep struct {
	Label     string
	Storage   []float64
	Bandwidth []float64
}

// StudyResult carries a full application study (Fig. 9 or Fig. 11).
type StudyResult struct {
	Spec     machine.Spec
	App      string
	Mappings []MappingSweep
	Sizes    []SizeSweep
}

// appBuilder constructs the proxy for the study's machine scale.
type appBuilder func(spec machine.Spec) cluster.App

// runAppSweep measures the app at interference levels 0..maxK on ex's
// bounded pool. label must pin the app's full identity (proxy name and
// input size): it keys the executor's memo, so the k=0 baseline of the
// storage and bandwidth sweeps — and any repeated (app, mapping) cell, like
// the p=1 panel shared by a study's mapping and size sweeps — simulates
// exactly once per executor.
func runAppSweep(ex *lab.Executor, opt Options, label string, build appBuilder,
	p int, kind core.Kind, maxK int) ([]float64, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	if room := spec.CoresPerSocket - p; maxK > room {
		maxK = room
	}
	iters, warm := appIters(opt.Grid)
	secs := make([]float64, maxK+1)
	err := ex.RunLabeled(fmt.Sprintf("%s %s sweep p=%d", label, kind, p),
		maxK+1, func(k int) error {
			cfg := cluster.RunConfig{
				Spec:           spec,
				App:            build(spec),
				RanksPerSocket: p,
				Interference:   cluster.Interference{Kind: kind, Threads: k},
				Iterations:     iters,
				Warmup:         warm,
				Homogeneous:    true,
				NoiseStd:       0.005,
				Seed:           opt.Seed,
			}
			res, err := lab.Memo(ex, clusterCellKey(cfg, label), func() (cluster.Result, error) {
				return cluster.Run(cfg)
			})
			if err != nil {
				return err
			}
			secs[k] = res.Seconds
			return nil
		})
	if err != nil {
		return nil, err
	}
	return secs, nil
}

// clusterCellKey fingerprints one cluster experiment cell from the config
// it actually runs with; label stands in for cfg.App (an interface holding
// fresh allocations, which cannot be hashed). k = 0 cells share a
// kind-independent baseline key, mirroring core.ExperimentKey.
func clusterCellKey(cfg cluster.RunConfig, label string) lab.Key {
	base := []any{cfg.Spec, label, cfg.RanksPerSocket, cfg.Iterations, cfg.Warmup,
		cfg.Homogeneous, cfg.NoiseStd, cfg.Prewarm, cfg.Seed}
	if cfg.Interference.Threads == 0 {
		return lab.KeyOf(append(base, "baseline")...)
	}
	return lab.KeyOf(append(base, cfg.Interference.Kind.String(), cfg.Interference.Threads)...)
}

// studyMappings returns the rank-per-socket mappings to sweep.
func studyMappings(grid Grid, totalRanks int) []int {
	var candidates []int
	switch grid {
	case GridPaper:
		candidates = []int{1, 2, 3, 4, 6}
	case GridQuick:
		candidates = []int{1, 2, 4}
	default:
		candidates = []int{1, 4}
	}
	var out []int
	for _, p := range candidates {
		if totalRanks%p == 0 {
			out = append(out, p)
		}
	}
	return out
}

// mcbSizes returns the particle counts to sweep.
func mcbSizes(grid Grid) []int {
	switch grid {
	case GridPaper:
		return []int{20000, 55000, 90000, 160000, 260000}
	case GridQuick:
		return []int{20000, 90000, 260000}
	default:
		return []int{20000, 260000}
	}
}

// luleshEdges returns the cube edges to sweep (full-scale units; the proxy
// scales them to the machine).
func luleshEdges(grid Grid) []int {
	switch grid {
	case GridPaper:
		return []int{22, 26, 30, 32, 36}
	case GridQuick:
		return []int{22, 30, 36}
	default:
		return []int{22, 36}
	}
}

// Fig9MCB runs the MCB study: mapping panel at 20,000 particles and size
// panel at one rank per socket. Particle counts are divided by the machine
// scale (as Lulesh cube edges are), so the particle-vault-to-L3 ratio —
// which controls where bandwidth sensitivity peaks — matches the paper's
// geometry; labels keep the full-scale counts.
func Fig9MCB(opt Options) (StudyResult, error) {
	opt = opt.withDefaults()
	ex, done := opt.executor()
	defer done()
	spec := opt.Spec()
	const ranks = 24
	res := StudyResult{Spec: spec, App: "MCB"}
	buildFor := func(particles int) appBuilder {
		scaled := particles / opt.Scale
		if scaled < ranks {
			scaled = ranks
		}
		return func(spec machine.Spec) cluster.App {
			return mcb.New(mcb.DefaultParams(spec.L3.Size, ranks, scaled))
		}
	}
	labelFor := func(particles int) string { return fmt.Sprintf("mcb,n=%d", particles) }
	for _, p := range studyMappings(opt.Grid, ranks) {
		ms := MappingSweep{P: p}
		var err error
		if ms.Storage, err = runAppSweep(ex, opt, labelFor(20000), buildFor(20000), p, core.Storage, maxStorageThreads); err != nil {
			return res, err
		}
		if ms.Bandwidth, err = runAppSweep(ex, opt, labelFor(20000), buildFor(20000), p, core.Bandwidth, maxBandwidthThreads); err != nil {
			return res, err
		}
		res.Mappings = append(res.Mappings, ms)
	}
	for _, n := range mcbSizes(opt.Grid) {
		ss := SizeSweep{Label: fmt.Sprintf("%dk particles", n/1000)}
		var err error
		if ss.Storage, err = runAppSweep(ex, opt, labelFor(n), buildFor(n), 1, core.Storage, maxStorageThreads); err != nil {
			return res, err
		}
		if ss.Bandwidth, err = runAppSweep(ex, opt, labelFor(n), buildFor(n), 1, core.Bandwidth, maxBandwidthThreads); err != nil {
			return res, err
		}
		res.Sizes = append(res.Sizes, ss)
	}
	return res, nil
}

// Fig11Lulesh runs the Lulesh study: mapping panel on the 22³ cube and cube
// panel at one rank per socket.
func Fig11Lulesh(opt Options) (StudyResult, error) {
	opt = opt.withDefaults()
	ex, done := opt.executor()
	defer done()
	spec := opt.Spec()
	const ranksPerDim = 4 // 64 ranks
	res := StudyResult{Spec: spec, App: "Lulesh"}
	buildFor := func(edge int) appBuilder {
		return func(spec machine.Spec) cluster.App {
			return lulesh.New(lulesh.DefaultParams(spec.L3.Size, ranksPerDim, edge))
		}
	}
	labelFor := func(edge int) string { return fmt.Sprintf("lulesh,edge=%d", edge) }
	for _, p := range studyMappings(opt.Grid, 64) {
		ms := MappingSweep{P: p}
		var err error
		if ms.Storage, err = runAppSweep(ex, opt, labelFor(22), buildFor(22), p, core.Storage, maxStorageThreads); err != nil {
			return res, err
		}
		if ms.Bandwidth, err = runAppSweep(ex, opt, labelFor(22), buildFor(22), p, core.Bandwidth, maxBandwidthThreads); err != nil {
			return res, err
		}
		res.Mappings = append(res.Mappings, ms)
	}
	for _, edge := range luleshEdges(opt.Grid) {
		ss := SizeSweep{Label: fmt.Sprintf("%dx%dx%d", edge, edge, edge)}
		var err error
		if ss.Storage, err = runAppSweep(ex, opt, labelFor(edge), buildFor(edge), 1, core.Storage, maxStorageThreads); err != nil {
			return res, err
		}
		if ss.Bandwidth, err = runAppSweep(ex, opt, labelFor(edge), buildFor(edge), 1, core.Bandwidth, maxBandwidthThreads); err != nil {
			return res, err
		}
		res.Sizes = append(res.Sizes, ss)
	}
	return res, nil
}

// slowdownCells renders a seconds series as baseline + percent slowdowns.
func slowdownCells(secs []float64) []string {
	out := make([]string, len(secs))
	for k, s := range secs {
		if k == 0 || secs[0] == 0 {
			out[k] = fmt.Sprintf("%.3gs", s)
			continue
		}
		out[k] = fmt.Sprintf("+%.1f%%", (s/secs[0]-1)*100)
	}
	return out
}

// Tables renders the study's four panels.
func (r StudyResult) Tables() []*report.Table {
	var out []*report.Table
	maxLen := func(sel func(MappingSweep) []float64) int {
		n := 0
		for _, m := range r.Mappings {
			if len(sel(m)) > n {
				n = len(sel(m))
			}
		}
		return n
	}
	mapPanel := func(title string, sel func(MappingSweep) []float64) *report.Table {
		n := maxLen(sel)
		header := []string{"threads"}
		for _, m := range r.Mappings {
			header = append(header, fmt.Sprintf("p=%d", m.P))
		}
		t := report.NewTable(title, header...)
		for k := 0; k < n; k++ {
			row := []string{fmt.Sprintf("%d", k)}
			for _, m := range r.Mappings {
				s := sel(m)
				if k < len(s) {
					row = append(row, slowdownCells(s)[k])
				} else {
					row = append(row, "-")
				}
			}
			t.Add(row...)
		}
		return t
	}
	out = append(out,
		mapPanel(fmt.Sprintf("Fig. %s top-left: %s vs CSThrs by mapping", r.figNum(), r.App),
			func(m MappingSweep) []float64 { return m.Storage }),
		mapPanel(fmt.Sprintf("Fig. %s top-right: %s vs BWThrs by mapping", r.figNum(), r.App),
			func(m MappingSweep) []float64 { return m.Bandwidth }))

	sizePanel := func(title string, sel func(SizeSweep) []float64) *report.Table {
		header := []string{"threads"}
		n := 0
		for _, s := range r.Sizes {
			header = append(header, s.Label)
			if len(sel(s)) > n {
				n = len(sel(s))
			}
		}
		t := report.NewTable(title, header...)
		for k := 0; k < n; k++ {
			row := []string{fmt.Sprintf("%d", k)}
			for _, s := range r.Sizes {
				series := sel(s)
				if k < len(series) {
					row = append(row, slowdownCells(series)[k])
				} else {
					row = append(row, "-")
				}
			}
			t.Add(row...)
		}
		return t
	}
	out = append(out,
		sizePanel(fmt.Sprintf("Fig. %s bottom-left: %s vs CSThrs by input (p=1)", r.figNum(), r.App),
			func(s SizeSweep) []float64 { return s.Storage }),
		sizePanel(fmt.Sprintf("Fig. %s bottom-right: %s vs BWThrs by input (p=1)", r.figNum(), r.App),
			func(s SizeSweep) []float64 { return s.Bandwidth }))
	return out
}

func (r StudyResult) figNum() string {
	if r.App == "MCB" {
		return "9"
	}
	return "11"
}

// ProfileRow is one mapping's per-process resource bounds.
type ProfileRow struct {
	Label               string
	P                   int
	CapLowMB, CapHighMB float64
	BWLowGBs, BWHighGBs float64
}

// ProfileResult is the Fig. 10 / Fig. 12 content: per-process resource
// consumption derived from a study plus the §III calibrations.
type ProfileResult struct {
	Spec  machine.Spec
	App   string
	Fig   string
	Scale int
	Rows  []ProfileRow
}

// BuildProfiles converts study sweeps into per-process resource bounds
// using the supplied calibrations (the paper's §IV analysis).
func BuildProfiles(opt Options, study StudyResult, capAvail []float64,
	bwAvail []float64, threshold float64) (ProfileResult, error) {
	opt = opt.withDefaults()
	fig := "10"
	if study.App != "MCB" {
		fig = "12"
	}
	res := ProfileResult{Spec: study.Spec, App: study.App, Fig: fig, Scale: opt.Scale}
	for _, m := range study.Mappings {
		storage := core.SweepFromSeconds(core.Storage, study.App, m.Storage)
		bandwidth := core.SweepFromSeconds(core.Bandwidth, study.App, m.Bandwidth)
		prof, err := core.BuildProfile(study.App, m.P, threshold,
			storage, capAvail, bandwidth, bwAvail)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, ProfileRow{
			Label:     fmt.Sprintf("p=%d", m.P),
			P:         m.P,
			CapLowMB:  mb(prof.CapacityLow),
			CapHighMB: mb(prof.CapacityHigh),
			BWLowGBs:  prof.BandwidthLow,
			BWHighGBs: prof.BandwidthHigh,
		})
	}
	return res, nil
}

// Table renders the profile rows, including full-scale equivalents when the
// study ran on a scaled machine.
func (r ProfileResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. %s: %s per-process resource consumption by mapping", r.Fig, r.App),
		"Mapping", "L3/process", "x"+fmt.Sprint(r.Scale)+" equiv", "GB/s per process")
	for _, row := range r.Rows {
		t.Add(row.Label,
			fmt.Sprintf("%.2f-%.2f MB", row.CapLowMB, row.CapHighMB),
			fmt.Sprintf("%.1f-%.1f MB", row.CapLowMB*float64(r.Scale), row.CapHighMB*float64(r.Scale)),
			fmt.Sprintf("%.2f-%.2f", row.BWLowGBs, row.BWHighGBs))
	}
	return t
}

// StudyCalibrations produces the availability tables the profile analysis
// needs: effective capacity per CSThr count (a reduced §III-C3 calibration)
// and available bandwidth per BWThr count (§III-A).
func StudyCalibrations(opt Options) (capAvail, bwAvail []float64, err error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	warmup, window := calibWindows(opt)
	bufs, _ := core.DefaultCalibrationGrid(spec, 2)
	ds := core.Table2Constructors()
	ex, done := opt.executor() // one pool for both calibration ladders
	defer done()
	cal, err := core.CalibrateCapacity(core.CalibrationConfig{
		MeasureConfig:  core.MeasureConfig{Spec: spec, Warmup: warmup, Window: window, Seed: opt.Seed},
		MaxThreads:     maxStorageThreads,
		BufferBytes:    bufs,
		Dists:          []func(int64) dist.Dist{ds[9]}, // uniform: the most stable inversion
		ComputePerLoad: 1,
		ElemSize:       4,
		Exec:           ex,
	})
	if err != nil {
		return nil, nil, err
	}
	bw, err := core.CalibrateBandwidth(
		core.MeasureConfig{Spec: spec, Warmup: 2_000_000, Window: 6_000_000, Seed: opt.Seed},
		maxBandwidthThreads, interfere.BWConfig{}, ex)
	if err != nil {
		return nil, nil, err
	}
	return cal.AvailableBytes(), bw.AvailableGBs, nil
}
