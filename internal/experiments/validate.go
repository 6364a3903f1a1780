package experiments

import (
	"fmt"

	"activemem/internal/core"
	"activemem/internal/dist"
	"activemem/internal/engine"
	"activemem/internal/lab"
	"activemem/internal/machine"
	"activemem/internal/mem"
	"activemem/internal/report"
	"activemem/internal/stats"
	"activemem/internal/units"
	"activemem/internal/workload/interfere"
)

// The orthogonality checks run one memoized cell per interference level,
// so their row types persist through the executor's disk tier like every
// other experiment result.
func init() {
	lab.RegisterResult[Fig7Row]("experiments.Fig7Row")
	lab.RegisterResult[Fig8Row]("experiments.Fig8Row")
}

// TableI renders the machine description (the paper's Table I).
func TableI(opt Options) string {
	return opt.Spec().TableI()
}

// TableII renders the synthetic access patterns (the paper's Table II) with
// the Σ F² term the EHR model consumes, for a representative buffer. The ten
// sums run as one executor batch.
func TableII(opt Options) (*report.Table, error) {
	spec := opt.Spec()
	n := spec.L3.Size * 2 / 4 // 2x L3 buffer of 4-byte elements
	ds := dist.Table2(n)
	sums := make([]float64, len(ds))
	ex, done := opt.executor()
	defer done()
	err := ex.RunLabeled("Table II Σ F(line)²", len(ds), func(i int) error {
		sums[i] = dist.SumSquaredLineMass(ds[i], spec.LineSize()/4)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table II: synthetic access patterns (buffer = 2x L3)",
		"Pattern", "Distribution", "StdDev (elems)", "Σ F(line)²")
	for i, d := range ds {
		t.Addf(d.Name(), fmt.Sprintf("%T", d), d.StdDev(), sums[i])
	}
	return t, nil
}

// SecIIIAResult is the §III-A bandwidth calibration: consumed and available
// bandwidth per BWThr count (paper: one BWThr = 2.8 GB/s; seven ≈ 100% of
// the 17 GB/s STREAM figure).
type SecIIIAResult struct {
	Spec machine.Spec
	Cal  core.BandwidthCalibration
}

// SecIIIA measures k = 0..7 BWThrs.
func SecIIIA(opt Options) (SecIIIAResult, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	cfg := core.MeasureConfig{Spec: spec, Warmup: 2_000_000, Window: 6_000_000, Seed: opt.Seed}
	max := spec.CoresPerSocket - 1
	ex, done := opt.executor()
	defer done()
	cal, err := core.CalibrateBandwidth(cfg, max, interfere.BWConfig{}, ex)
	if err != nil {
		return SecIIIAResult{}, err
	}
	return SecIIIAResult{Spec: spec, Cal: cal}, nil
}

// Table renders the calibration.
func (r SecIIIAResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("§III-A bandwidth interference calibration (peak %.2f GB/s)", r.Cal.PeakGBs),
		"BWThrs", "Consumed GB/s", "Available GB/s", "% of peak consumed")
	for k := range r.Cal.ConsumedGBs {
		t.Addf(k, r.Cal.ConsumedGBs[k], r.Cal.AvailableGBs[k],
			100*r.Cal.ConsumedGBs[k]/r.Cal.PeakGBs)
	}
	return t
}

// calibGrid returns buffer sizes and distributions per grid level.
func calibGrid(spec machine.Spec, grid Grid) ([]int64, []func(int64) dist.Dist) {
	switch grid {
	case GridPaper:
		return core.DefaultCalibrationGrid(spec, 22)
	case GridQuick:
		bufs, _ := core.DefaultCalibrationGrid(spec, 5)
		return bufs, core.Table2Constructors()
	default: // GridSmoke
		bufs, _ := core.DefaultCalibrationGrid(spec, 2)
		ds := core.Table2Constructors()
		return bufs, []func(int64) dist.Dist{ds[0], ds[3], ds[9]} // Norm4, Exp4, Uni
	}
}

// calibWindows returns warmup/window cycles appropriate to the machine
// scale: steady state needs the L3 population to turn over a few times.
func calibWindows(opt Options) (warmup, window units.Cycles) {
	base := units.Cycles(30_000_000)
	if opt.Grid == GridSmoke {
		base = 15_000_000
	}
	factor := units.Cycles(8 / min64(8, int64(opt.Scale)))
	if opt.Scale == 1 {
		factor = 8
	}
	return base * factor, base * factor * 2 / 5
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Fig5Row is one buffer size of the model-error evaluation.
type Fig5Row struct {
	BufferBytes int64
	MeanAbsErr  float64 // mean |predicted − measured| miss rate over patterns
	StdAbsErr   float64
}

// Fig5Result evaluates Eq. 4 against the simulator with no interference
// (the paper's Fig. 5: error < ~10%, shrinking as buffers grow).
type Fig5Result struct {
	Spec machine.Spec
	Rows []Fig5Row
}

// Fig5 runs the model evaluation.
func Fig5(opt Options) (Fig5Result, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	bufs, dists := calibGrid(spec, opt.Grid)
	warmup, window := calibWindows(opt)
	ex, done := opt.executor()
	defer done()
	cal, err := core.CalibrateCapacity(core.CalibrationConfig{
		MeasureConfig:  core.MeasureConfig{Spec: spec, Warmup: warmup, Window: window, Seed: opt.Seed},
		MaxThreads:     0,
		BufferBytes:    bufs,
		Dists:          dists,
		ComputePerLoad: 1,
		ElemSize:       4,
		Exec:           ex,
	})
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{Spec: spec}
	perBuf := map[int64][]float64{}
	for _, s := range cal.Points[0].Samples {
		perBuf[s.BufferBytes] = append(perBuf[s.BufferBytes],
			abs(s.PredictedMiss-s.MeasuredMiss))
	}
	for _, b := range bufs {
		mean, std := stats.MeanStd(perBuf[b])
		res.Rows = append(res.Rows, Fig5Row{BufferBytes: b, MeanAbsErr: mean, StdAbsErr: std})
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Table renders the evaluation.
func (r Fig5Result) Table() *report.Table {
	t := report.NewTable("Fig. 5: |predicted - measured| L3 miss rate (mean ± σ over patterns)",
		"Buffer", "Mean abs err", "+1 σ")
	for _, row := range r.Rows {
		t.Addf(units.FormatBytes(row.BufferBytes), row.MeanAbsErr, row.MeanAbsErr+row.StdAbsErr)
	}
	return t
}

// Fig6Result is the effective-capacity evaluation: for each compute
// intensity and CSThr count, the capacity Eq. 4 attributes to the
// benchmarks (the paper's Fig. 6: ≈{20,15,12,7,4,3} MB for k = 0..5).
type Fig6Result struct {
	Spec       machine.Spec
	Computes   []int
	PerCompute []core.CapacityCalibration // indexed like Computes
}

// Fig6 runs the evaluation.
func Fig6(opt Options) (Fig6Result, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	res := Fig6Result{Spec: spec}
	switch opt.Grid {
	case GridPaper:
		res.Computes = []int{1, 10, 100}
	case GridQuick:
		res.Computes = []int{1, 10}
	default:
		res.Computes = []int{1}
	}
	bufs, dists := calibGrid(spec, opt.Grid)
	warmup, window := calibWindows(opt)
	maxThreads := 5
	if opt.Grid == GridSmoke {
		maxThreads = 3
	}
	ex, done := opt.executor() // shared across compute intensities (and callers via opt.Exec)
	defer done()
	for _, c := range res.Computes {
		cal, err := core.CalibrateCapacity(core.CalibrationConfig{
			MeasureConfig:  core.MeasureConfig{Spec: spec, Warmup: warmup, Window: window, Seed: opt.Seed},
			MaxThreads:     maxThreads,
			BufferBytes:    bufs,
			Dists:          dists,
			ComputePerLoad: c,
			ElemSize:       4,
			Exec:           ex,
		})
		if err != nil {
			return Fig6Result{}, err
		}
		res.PerCompute = append(res.PerCompute, cal)
	}
	return res, nil
}

// Tables renders one table per compute intensity.
func (r Fig6Result) Tables() []*report.Table {
	var out []*report.Table
	for i, c := range r.Computes {
		cal := r.PerCompute[i]
		t := report.NewTable(
			fmt.Sprintf("Fig. 6: effective L3 capacity (MB) vs CSThrs, %d adds/load", c),
			"CSThrs", "Mean MB", "σ MB", "Pinned by CSThrs MB")
		phys := float64(r.Spec.L3.Size)
		for _, p := range cal.Points {
			t.Addf(p.Threads, mb(p.MeanBytes), mb(p.StdBytes), mb(phys-p.MeanBytes))
		}
		out = append(out, t)
	}
	return out
}

// Fig7Row is one CSThr level of the BWThr orthogonality check.
type Fig7Row struct {
	CSThrs        int
	BWGBs         float64
	L3MissRate    float64
	SecondsPer1e7 float64 // time for 10^7 main-loop iterations (44 accesses each)
}

// Fig7Result is the paper's Fig. 7: a BWThr's metrics must stay flat as
// CSThrs are added.
type Fig7Result struct {
	Spec machine.Spec
	Rows []Fig7Row
}

// Fig7 runs the orthogonality check. Each interference level is one
// memoized cell on the options' executor, so levels run on the bounded
// pool and a warm cache serves the whole figure without simulating.
func Fig7(opt Options) (Fig7Result, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	res := Fig7Result{Spec: spec, Rows: make([]Fig7Row, 6)}
	warm := csWarmup(spec)
	const window = units.Cycles(6_000_000)
	ex, done := opt.executor()
	defer done()
	err := ex.RunLabeled("Fig. 7 BWThr vs CSThrs", len(res.Rows), func(k int) error {
		row, err := lab.Memo(ex, lab.KeyOf(spec, opt.Seed, "fig7", warm, window, k),
			func() (Fig7Row, error) { return fig7Cell(spec, opt.Seed, warm, window, k), nil })
		if err != nil {
			return err
		}
		res.Rows[k] = row
		return nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	return res, nil
}

// fig7Cell measures one BWThr against k CSThrs.
func fig7Cell(spec machine.Spec, seed uint64, warm, window units.Cycles, k int) Fig7Row {
	h := spec.NewSocket(seed)
	e := engine.New(h, spec.MSHRs)
	alloc := mem.NewAlloc(spec.LineSize())
	bw := interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc)
	e.PlaceDaemon(0, bw, seed+1)
	for i := 0; i < k; i++ {
		e.PlaceDaemon(1+i, interfere.NewCSThr(interfere.DefaultCSConfig(spec.L3.Size), alloc),
			seed+10+uint64(i))
	}
	e.RunUntil(warm)
	workBefore := e.Ctx(0).Work()
	h.ResetStats()
	e.RunUntil(warm + window)
	ctr := h.PerCore[0]
	accesses := e.Ctx(0).Work() - workBefore
	secPerAccess := spec.Clock.Seconds(window) / float64(accesses)
	return Fig7Row{
		CSThrs: k,
		// Eq. 1 of the paper: BW = line size × #misses / time (demand
		// fills only, excluding writebacks of other threads' lines).
		BWGBs:         spec.Clock.BandwidthGBs(ctr.MemAccs*spec.LineSize(), window),
		L3MissRate:    ctr.L3MissRate(),
		SecondsPer1e7: secPerAccess * 44 * 1e7,
	}
}

// Table renders the check.
func (r Fig7Result) Table() *report.Table {
	t := report.NewTable("Fig. 7: BWThr behaviour vs concurrent CSThrs (must stay flat)",
		"CSThrs", "BWThr GB/s", "BWThr L3 miss", "s / 10^7 loop iters")
	for _, row := range r.Rows {
		t.Addf(row.CSThrs, row.BWGBs, row.L3MissRate, row.SecondsPer1e7)
	}
	return t
}

// Fig8Row is one BWThr level of the CSThr orthogonality check.
type Fig8Row struct {
	BWThrs     int
	CSGBs      float64
	L3MissRate float64
	NsPerOp    float64 // read + add + write
}

// Fig8Result is the paper's Fig. 8: a CSThr tolerates 1-2 BWThrs but
// degrades at 3+, bounding how much bandwidth can be stolen independently.
type Fig8Result struct {
	Spec machine.Spec
	Rows []Fig8Row
}

// Fig8 runs the opposite orthogonality check, cell-per-level like Fig7.
func Fig8(opt Options) (Fig8Result, error) {
	opt = opt.withDefaults()
	spec := opt.Spec()
	res := Fig8Result{Spec: spec, Rows: make([]Fig8Row, 6)}
	warm := csWarmup(spec)
	const window = units.Cycles(6_000_000)
	ex, done := opt.executor()
	defer done()
	err := ex.RunLabeled("Fig. 8 CSThr vs BWThrs", len(res.Rows), func(k int) error {
		row, err := lab.Memo(ex, lab.KeyOf(spec, opt.Seed, "fig8", warm, window, k),
			func() (Fig8Row, error) { return fig8Cell(spec, opt.Seed, warm, window, k), nil })
		if err != nil {
			return err
		}
		res.Rows[k] = row
		return nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	return res, nil
}

// fig8Cell measures one CSThr against k BWThrs.
func fig8Cell(spec machine.Spec, seed uint64, warm, window units.Cycles, k int) Fig8Row {
	h := spec.NewSocket(seed)
	e := engine.New(h, spec.MSHRs)
	alloc := mem.NewAlloc(spec.LineSize())
	cs := interfere.NewCSThr(interfere.DefaultCSConfig(spec.L3.Size), alloc)
	e.PlaceDaemon(0, cs, seed+1)
	for i := 0; i < k; i++ {
		e.PlaceDaemon(1+i, interfere.NewBWThr(interfere.DefaultBWConfig(spec.L3.Size), alloc),
			seed+10+uint64(i))
	}
	e.RunUntil(warm)
	workBefore := e.Ctx(0).Work()
	h.ResetStats()
	e.RunUntil(warm + window)
	ctr := h.PerCore[0]
	ops := e.Ctx(0).Work() - workBefore
	return Fig8Row{
		BWThrs:     k,
		CSGBs:      spec.Clock.BandwidthGBs(ctr.BusBytes, window),
		L3MissRate: ctr.L3MissRate(),
		NsPerOp:    spec.Clock.Seconds(window) / float64(ops) * 1e9,
	}
}

// Table renders the check.
func (r Fig8Result) Table() *report.Table {
	t := report.NewTable("Fig. 8: CSThr behaviour vs concurrent BWThrs (flat to 2, degrades at 3+)",
		"BWThrs", "CSThr GB/s", "CSThr L3 miss", "ns / read+add+write")
	for _, row := range r.Rows {
		t.Addf(row.BWThrs, row.CSGBs, row.L3MissRate, row.NsPerOp)
	}
	return t
}

// csWarmup covers the CSThr coupon-collector bound at the machine's scale.
func csWarmup(spec machine.Spec) units.Cycles {
	lines := spec.L3.Size / 5 / spec.LineSize()
	return units.Cycles(lines * 700)
}
