// The CLIs' shared entry into the telemetry subsystem: one flag, one start
// call. Keeping it here (rather than in each main) pins the contract that
// every experiment command exposes the same endpoints with the same status
// sources — and that the "telemetry: listening on ..." stderr line CI's
// smoke job parses never drifts between commands.

package lab

import (
	"flag"
	"fmt"
	"io"

	"activemem/internal/telemetry"
)

// RegisterTelemetryFlag registers the opt-in -telemetry flag on the
// default flag set. Call it before flag.Parse.
func RegisterTelemetryFlag() *string {
	return flag.String("telemetry", "",
		"serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:0); empty = disabled")
}

// StartTelemetry starts the telemetry HTTP listener when addr is non-empty,
// announces the bound address on w (the ephemeral-port form 127.0.0.1:0 is
// useless unannounced), and binds the executor's point-in-time snapshots —
// lab.Stats, and the disk tier's OpCounters when a cache is attached —
// into /statusz. Starting the listener also activates latency timing and
// pprof cell labelling process-wide (telemetry.Serve). The returned stop
// function closes the listener; with an empty addr it is a no-op and
// nothing is activated.
func StartTelemetry(addr string, ex *Executor, w io.Writer) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	telemetry.Default.AddStatus("lab", func() any { return ex.Stats() })
	if c := ex.Cache(); c != nil {
		telemetry.Default.AddStatus("store_ops", func() any { return c.Counters() })
	}
	if rc := ex.Remote(); rc != nil {
		// Degradation at a glance: hits vs errors/corrupt, breaker state
		// and opens, write-back queue depth and drops.
		telemetry.Default.AddStatus("remote", func() any { return rc.Stats() })
	}
	srv, err := telemetry.Serve(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "telemetry: listening on http://%s\n", srv.Addr())
	return func() { srv.Close() }, nil
}
