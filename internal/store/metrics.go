// The store's telemetry instruments. Process-wide (package-level): a
// process may open several Stores, and the exposition is about what this
// process did to its caches, which is exactly the sum. Per-instance
// accounting stays on OpCounters.
//
// Cost discipline mirrors the rest of the stack: event counters are
// always-on single atomic adds on paths that already do real work (a get
// does a map probe or a pread),
// while latency timing — the time.Now pairs around Get/Put — is gated on
// telemetry.Active() so the lock-free read path stays lock-free and
// near-free with the listener off.

package store

import "activemem/internal/telemetry"

var (
	tmGets = telemetry.Default.NewCounter("store_gets_total",
		"Store Get calls.")
	tmPuts = telemetry.Default.NewCounter("store_puts_total",
		"Store Put calls.")
	tmSnapshotHits = telemetry.Default.NewCounter("store_snapshot_hits_total",
		"Gets served lock-free from a shard's published index snapshot (one pread).")
	tmSlowGets = telemetry.Default.NewCounter("store_slow_gets_total",
		"Gets that fell to a shard's locked slow path (misses, verification failures).")

	tmGetSeconds = telemetry.Default.NewHistogramVec("store_get_seconds",
		"Get latency by shard (timing active only with telemetry on).",
		"shard", numShards)
	tmPutSeconds = telemetry.Default.NewHistogramVec("store_put_seconds",
		"Put latency by shard, including the segment fsync (timing active only with telemetry on).",
		"shard", numShards)
)
