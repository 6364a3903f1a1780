// Graceful shutdown for campaign processes. On an interrupt the CLIs ask
// the executor to stop dispatching, drain the cells already running, and
// close the cache tiers (store handles + remote write-back drain) before
// exiting, so every finished cell is persisted rather than recomputed.

package lab

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// ErrInterrupted is the batch error a campaign observes when the
// executor was interrupted (Interrupt, typically from NotifyShutdown):
// no further cells dispatch, in-flight cells finish, and every pending
// Run unwinds with this error. Campaign code treats it like any other
// first error — results computed so far are already persisted, so the
// next run resumes where this one stopped.
var ErrInterrupted = errors.New("lab: campaign interrupted")

// Interrupt asks the executor to stop dispatching new cells. Cells
// already running complete normally (and persist their results);
// batches in flight and every later Run return ErrInterrupted. It is
// safe from any goroutine, including signal handlers, and idempotent.
func (e *Executor) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Executor) Interrupted() bool { return e.interrupted.Load() }

// NotifyShutdown installs SIGINT/SIGTERM handling for a campaign CLI:
// the first signal interrupts the executor — stop dispatching, drain
// in-flight cells, unwind with ErrInterrupted so the CLI's cleanup path
// syncs the cache tiers — and announces what is happening on w; a
// second signal exits immediately with status 130 for the impatient.
// The returned stop function uninstalls the handler (call it once the
// campaign is done, so later signals get default behaviour again).
func NotifyShutdown(e *Executor, w io.Writer) (stop func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(w, "\n%v: draining in-flight cells, syncing caches (signal again to exit now)\n", sig)
			e.Interrupt()
		case <-done:
			return
		}
		select {
		case <-ch:
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
