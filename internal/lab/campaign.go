// The campaign harness: the flags, cache tiers, fleet link, signal
// handling, telemetry listener, profiles and epilogue that every campaign
// CLI (validate, appstudy, activemem) shares. A CLI registers its own
// flags beside RegisterCampaignFlags, checks their values, opens the
// campaign, and leaves through Close or Check on every path — so an
// interrupted or failed campaign still drains its in-flight cells,
// delivers its write-backs, prints its epilogue and writes its profiles.

package lab

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"activemem/internal/fleet"
	"activemem/internal/remote"
	"activemem/internal/store"
	"activemem/internal/telemetry"
)

// ErrInterrupted is the batch error a campaign observes when the
// executor was interrupted (Interrupt, typically from a campaign's signal
// handler): no further cells dispatch, in-flight cells finish, and every
// pending Run unwinds with this error. Campaign code treats it like any
// other first error — results computed so far are already persisted, so
// the next run resumes where this one stopped.
var ErrInterrupted = errors.New("lab: campaign interrupted")

// Interrupt asks the executor to stop dispatching new cells. Cells
// already running complete normally (and persist their results);
// batches in flight and every later Run return ErrInterrupted. It is
// safe from any goroutine, including signal handlers, and idempotent.
func (e *Executor) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Executor) Interrupted() bool { return e.interrupted.Load() }

// CampaignFlags holds the values of the flags every campaign CLI shares,
// between RegisterCampaignFlags (before parsing) and Open (after it).
type CampaignFlags struct {
	jobs       int
	progress   bool
	cacheDir   string
	cacheURL   string
	workerOf   string
	telemetry  string
	cpuProfile string
	memProfile string
}

// RegisterCampaignFlags registers the shared campaign flags on fs: -j,
// -progress, -cache-dir, -cache-url, -worker-of, -telemetry, -cpuprofile
// and -memprofile.
func RegisterCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	f := &CampaignFlags{}
	fs.IntVar(&f.jobs, "j", 0, "parallel experiment cells (0 = all CPUs, 1 = serial)")
	fs.BoolVar(&f.progress, "progress", false, "report per-batch experiment progress on stderr")
	fs.StringVar(&f.cacheDir, "cache-dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
		"persist results to this on-disk store and resume from it (default $ACTIVEMEM_CACHE_DIR)")
	fs.StringVar(&f.cacheURL, "cache-url", os.Getenv("ACTIVEMEM_CACHE_URL"),
		"also consult a labcached server at this URL as a best-effort remote tier (default $ACTIVEMEM_CACHE_URL)")
	fs.StringVar(&f.workerOf, "worker-of", os.Getenv("ACTIVEMEM_FLEET_URL"),
		"run as one worker of the fleet coordinator at this URL (default $ACTIVEMEM_FLEET_URL); implies -cache-url there unless set")
	fs.StringVar(&f.telemetry, "telemetry", "",
		"serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:0); empty = disabled")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Campaign is an opened campaign: one executor over the configured cache
// tiers and fleet link, with the process-level plumbing around it. It is
// used from main's goroutine; the signal handler only interrupts Exec.
type Campaign struct {
	// Exec schedules every cell of the campaign. One executor serves all
	// of a CLI's figures, so its memo deduplicates cells shared between
	// them (Fig. 5's grid is the k=0 slice of Fig. 6's).
	Exec *Executor

	progress    bool
	memProfile  string
	cpuProfile  *os.File
	cache       *store.Store
	remote      *remote.Client
	fleet       *fleet.Client
	stopSignals func()
	listener    *telemetry.Server
	closeOnce   sync.Once
}

// Open starts the CPU profile, opens the disk tier, the remote tier and
// the fleet link, builds the executor over them, installs the
// SIGINT/SIGTERM handler and starts the telemetry listener, in that
// order. On failure it closes whatever it had opened and returns the
// error.
func (f *CampaignFlags) Open() (*Campaign, error) {
	c := &Campaign{progress: f.progress, memProfile: f.memProfile}
	if err := c.open(f); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Campaign) open(f *CampaignFlags) error {
	if f.cpuProfile != "" {
		pf, err := os.Create(f.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		c.cpuProfile = pf
		// Label worker goroutines with their batch, so the profile
		// attributes samples to campaign cells without the telemetry
		// listener.
		telemetry.SetCellLabels(true)
	}
	var err error
	if c.cache, err = OpenCache(f.cacheDir); err != nil {
		return err
	}
	// A fleet worker publishes results through the shared cache its peers
	// read from; the coordinator address doubles as that cache unless the
	// operator split them explicitly (labcached serves both by default).
	cacheURL := f.cacheURL
	if cacheURL == "" {
		cacheURL = f.workerOf
	}
	// A down, slow or wrong server or coordinator merely degrades lookups
	// to misses and claims to solo compute at runtime; the only open
	// error is a malformed URL.
	if cacheURL != "" {
		if c.remote, err = remote.New(remote.OptionsFromEnv(cacheURL, ResultSchemaVersion)); err != nil {
			return err
		}
	}
	if f.workerOf != "" {
		if c.fleet, err = fleet.NewClient(fleet.ClientOptionsFromEnv(f.workerOf)); err != nil {
			return err
		}
	}
	c.Exec = New(Config{Workers: f.jobs, Progress: stderrProgress(f.progress),
		Cache: c.cache, Remote: c.remote, Fleet: c.fleet})
	c.stopSignals = notifyShutdown(c.Exec)
	if f.telemetry != "" {
		return c.startTelemetry(f.telemetry)
	}
	return nil
}

// notifyShutdown installs SIGINT/SIGTERM handling: the first signal
// interrupts the executor — stop dispatching, drain in-flight cells,
// unwind with ErrInterrupted so the campaign's Check closes the tiers —
// and announces it on stderr; a second signal exits immediately with
// status 130. The returned stop function uninstalls the handler.
func notifyShutdown(e *Executor) (stop func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "\n%v: draining in-flight cells, syncing caches (signal again to exit now)\n", sig)
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

// startTelemetry serves /metrics, /statusz and /debug/pprof on addr,
// announces the bound address on stderr (CI parses "telemetry: listening
// on ..."; the ephemeral-port form 127.0.0.1:0 is useless unannounced),
// and binds the executor's and tiers' point-in-time snapshots into
// /statusz. Serving also activates latency timing and pprof cell
// labelling process-wide (telemetry.Serve).
func (c *Campaign) startTelemetry(addr string) error {
	ex := c.Exec
	telemetry.Default.AddStatus("lab", func() any { return ex.Stats() })
	if c.cache != nil {
		telemetry.Default.AddStatus("store_ops", func() any { return c.cache.Counters() })
	}
	if c.remote != nil {
		// Degradation at a glance: hits vs errors/corrupt, breaker state
		// and opens, write-back queue depth and drops.
		telemetry.Default.AddStatus("remote", func() any { return c.remote.Stats() })
	}
	srv, err := telemetry.Serve(addr)
	if err != nil {
		return err
	}
	c.listener = srv
	fmt.Fprintf(os.Stderr, "telemetry: listening on http://%s\n", srv.Addr())
	return nil
}

// Close ends the campaign; later calls are no-ops. The order matters:
// the executor drains first, then the fleet link and the remote tier's
// write-back queue, so the epilogue printed next carries final counters;
// the store closes after the epilogue has read it. Under -progress the
// pool line follows. The telemetry listener and signal handler stop
// last, just before the CPU profile stops and the allocation profile is
// written.
func (c *Campaign) Close() {
	c.closeOnce.Do(func() {
		if c.Exec != nil {
			c.Exec.Close()
		}
		if c.fleet != nil {
			c.fleet.Close()
		}
		c.remote.Close()
		if c.Exec != nil {
			c.Exec.PrintCacheSummary(os.Stderr)
		}
		if c.cache != nil {
			c.cache.Close()
		}
		if c.Exec != nil && c.progress {
			c.Exec.PrintPoolSummary(os.Stderr)
		}
		if c.listener != nil {
			c.listener.Close()
		}
		if c.stopSignals != nil {
			c.stopSignals()
		}
		if c.cpuProfile != nil {
			pprof.StopCPUProfile()
			if err := c.cpuProfile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if c.memProfile != "" {
			if err := writeAllocProfile(c.memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	})
}

// writeAllocProfile writes the allocation profile to path after a GC, so
// the profile separates live data from garbage the next collection would
// have reclaimed.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Check ends the campaign on a non-nil error: it closes the campaign,
// then exits 130 when the error is ErrInterrupted (the finished cells are
// persisted and a rerun resumes) and log.Fatal otherwise.
func (c *Campaign) Check(err error) {
	if err == nil {
		return
	}
	c.Close()
	if errors.Is(err, ErrInterrupted) {
		log.Println("interrupted: finished cells are persisted; rerun with the same flags to resume")
		os.Exit(130)
	}
	log.Fatal(err)
}

// stderrProgress returns a Progress callback that renders a per-batch
// "label: done/total" meter on stderr, or nil when enabled is false. The
// done = -1 abort signal terminates the meter line so a following error
// message starts on a fresh line.
func stderrProgress(enabled bool) func(label string, done, total int) {
	if !enabled {
		return nil
	}
	return func(label string, done, total int) {
		if done < 0 {
			fmt.Fprintln(os.Stderr)
			return
		}
		if label == "" {
			label = "experiment batch"
		}
		fmt.Fprintf(os.Stderr, "\r  %s: %d/%d", label, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
