// Command labcached serves a persistent result store over HTTP as the
// team-wide remote memo tier: campaigns on any machine consult it after
// their local tiers (-cache-url) and write computed cells back, so a
// paper-scale grid is simulated once, ever, org-wide. It also serves the
// fleet coordinator that leases a distributed campaign's cells.
//
// Usage:
//
//	labcached [-addr HOST:PORT] [-dir DIR] [-drain DUR]
//	          [-auth-token TOK] [-coord] [-lease-ttl DUR] [-steal-after DUR]
//	          [-policy first-error|keep-going] [-max-retries N]
//
// The cell endpoints (GET/PUT /v1/cell/{key}, see internal/remote) are
// mounted beside the standard telemetry handler, so /metrics, /statusz
// and /debug/pprof/ come for free on the same listener. The bound
// address is announced on stderr ("labcached: listening on http://…"),
// which makes -addr 127.0.0.1:0 usable in scripts and CI.
//
// With -coord (the default), a fleet coordinator is mounted at
// /v1/campaign/* on the same listener, so one process serves both the
// results and the leases of a distributed campaign: point every
// worker's -worker-of (and -cache-url) at this address. With an empty
// -dir it serves the coordinator alone, for topologies that split
// leases from results (workers name both: -worker-of this server,
// -cache-url another labcached run with -coord=false) and for chaos
// drills where the coordinator must be killable without taking the
// cache down. Coordinator state is in-memory by design: completed cells
// live in the shared cache, so a restarted coordinator re-learns the
// campaign from the claims that keep arriving. -auth-token (default
// $ACTIVEMEM_CACHE_TOKEN) guards both the cell and campaign endpoints
// with a shared-secret bearer token; telemetry endpoints stay open,
// matching the usual metrics-are-public posture.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests for up to -drain, prints the coordinator's summary
// (cells, leases, steals, expiries), closes the store and exits; a
// second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"activemem/internal/fleet"
	"activemem/internal/lab"
	"activemem/internal/remote"
	"activemem/internal/store"
	"activemem/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("labcached: ")
	var (
		addr = flag.String("addr", "127.0.0.1:8344", "listen address (use :0 for an ephemeral port)")
		dir  = flag.String("dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
			"result store directory to serve (default $ACTIVEMEM_CACHE_DIR)")
		drain = flag.Duration("drain", 10*time.Second,
			"in-flight request drain budget on shutdown")
		authToken = flag.String("auth-token", remote.TokenFromEnv(),
			"shared-secret bearer token for the cell and campaign endpoints, empty to disable (default $ACTIVEMEM_CACHE_TOKEN)")
		coord = flag.Bool("coord", true,
			"also serve a fleet coordinator at /v1/campaign/*")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second,
			"coordinator lease TTL: a worker silent this long forfeits its cells")
		stealAfter = flag.Duration("steal-after", 45*time.Second,
			"how long a cell may stay leased before idle workers may duplicate it")
		policy = flag.String("policy", "first-error",
			"coordinator failure policy: first-error aborts the campaign, keep-going re-leases failed cells")
		maxRetries = flag.Int("max-retries", 2,
			"compute-failure re-leases per cell under -policy keep-going")
	)
	flag.Parse()
	if *policy != "first-error" && *policy != "keep-going" {
		log.Fatalf("unknown -policy %q (want first-error or keep-going)", *policy)
	}
	if *dir == "" && !*coord {
		log.Fatal("nothing to serve: set -dir (or $ACTIVEMEM_CACHE_DIR), or keep -coord")
	}

	// One mux: the cell protocol and the coordinator beside the stock
	// telemetry surface. Serving /metrics from the same registry the
	// remote/store/fleet packages register on means server-side request
	// counters and store op counters are all scrapeable without extra
	// wiring.
	telemetry.SetActive(true)
	mux := http.NewServeMux()
	var st *store.Store
	if *dir != "" {
		var err error
		if st, err = lab.OpenCache(*dir); err != nil {
			log.Fatal(err)
		}
		telemetry.Default.AddStatus("store_ops", func() any { return st.Counters() })
		telemetry.Default.AddStatus("labcached", func() any {
			return map[string]any{"dir": st.Dir(), "entries": st.Len(), "schema": st.Schema()}
		})
		mux.Handle(remote.CellPathPrefix, remote.RequireAuth(*authToken, remote.NewHandler(st)))
	}
	var co *fleet.Coordinator
	if *coord {
		co = fleet.NewCoordinator(fleet.Options{
			LeaseTTL:   *leaseTTL,
			StealAfter: *stealAfter,
			KeepGoing:  *policy == "keep-going",
			MaxRetries: *maxRetries,
		})
		telemetry.Default.AddStatus("fleet", func() any { return co.Status() })
		mux.Handle(fleet.PathPrefix, remote.RequireAuth(*authToken, fleet.NewHandler(co)))
	}
	mux.Handle("/", telemetry.Handler(telemetry.Default))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(os.Stderr, "labcached: listening on http://%s\n", ln.Addr())
	if st != nil {
		fmt.Fprintf(os.Stderr, "labcached: serving %d cells from %s (schema %s)\n",
			st.Len(), st.Dir(), st.Schema())
	} else {
		fmt.Fprintln(os.Stderr, "labcached: no -dir: serving leases only")
	}
	if *coord {
		fmt.Fprintf(os.Stderr, "labcached: coordinator at %s (lease-ttl %s, steal-after %s, policy %s)\n",
			fleet.PathPrefix, *leaseTTL, *stealAfter, *policy)
	}
	if *authToken != "" {
		fmt.Fprintln(os.Stderr, "labcached: bearer-token auth enabled on cell and campaign endpoints")
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if st != nil {
			st.Close()
		}
		log.Fatal(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "labcached: %v: draining in-flight requests (up to %s; signal again to exit now)\n",
			sig, *drain)
	}
	go func() {
		<-sigCh
		os.Exit(130)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if co != nil {
		s := co.Status()
		fmt.Fprintf(os.Stderr, "labcached: coordinator: %d cells (%d done, %d failed), %d leases, %d steals, %d expiries\n",
			s.Cells, s.Done, s.Failed, s.LeasesGranted, s.Steals, s.Expired)
	}
	if st == nil {
		fmt.Fprintln(os.Stderr, "labcached: bye")
		return
	}
	// Every acknowledged put is already durable in its segment; closing
	// releases the store's file handles and locks.
	if err := st.Close(); err != nil {
		log.Fatalf("store close: %v", err)
	}
	fmt.Fprintln(os.Stderr, "labcached: store closed, bye")
}
