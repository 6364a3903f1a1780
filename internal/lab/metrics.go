// The executor's telemetry instruments: per-cell spans by memo tier,
// worker-pool occupancy and queue depth, and the bounded per-label span
// tracker. Counters and gauges are always live (single atomic adds on
// paths that schedule whole experiment cells); span *timing* — the
// time.Now pairs — is gated on telemetry.Active() so a run without the
// listener or a profiler pays no clock reads per cell.

package lab

import "activemem/internal/telemetry"

// Tier indices for cellsByTier/cellSecondsByTier: how a Do call resolved.
const (
	tierMemo = iota
	tierDisk
	tierRemote
	tierCompute
	numTiers
)

var tierNames = [numTiers]string{"memo", "disk", "remote", "compute"}

var (
	mCells       [numTiers]*telemetry.Counter
	mCellSeconds [numTiers]*telemetry.Histogram
	mQueueDepth  = telemetry.Default.NewGauge("lab_queue_depth",
		"Batch tasks submitted to the resident pool and not yet started.")
	mWorkersBusy = telemetry.Default.NewGauge("lab_workers_busy",
		"Resident workers currently executing a cell.")
	mWorkersResident = telemetry.Default.NewGauge("lab_workers_resident",
		"Resident worker goroutines across all live executors.")
	mBatches = telemetry.Default.NewCounter("lab_batches_total",
		"Executor batches dispatched (Run/RunLabeled calls).")
	mQueueWait = telemetry.Default.NewHistogram("lab_cell_queue_seconds",
		"Span from batch-task submission to a worker starting it.")
	mRunSeconds = telemetry.Default.NewHistogram("lab_cell_run_seconds",
		"Span from a worker starting a cell to its completion.")
	mLabelSpans = telemetry.Default.NewTopK("lab_cell_label_seconds",
		"Per-batch-label cell spans, space-saving top-K (bounded memory at any label cardinality).", 48)
)

func init() {
	for t := 0; t < numTiers; t++ {
		mCells[t] = telemetry.Default.NewCounter("lab_cells_total",
			"Do calls by resolution tier: in-process memo, disk segment, remote cache, or computed.",
			telemetry.Label{Key: "tier", Value: tierNames[t]})
		mCellSeconds[t] = telemetry.Default.NewHistogram("lab_cell_seconds",
			"Do resolution span by tier (lookup+decode for cache tiers, the computation for compute).",
			telemetry.Label{Key: "tier", Value: tierNames[t]})
	}
}
