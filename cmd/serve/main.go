// Command serve runs the sweep service: an HTTP API over a persistent
// content-addressed result store (internal/store). POST a config to
// /v1/run (or a config-and-loads grid to /v1/sweep) and the service
// answers from the store when it can, executing only the configs it has
// never seen — each exactly once, even under concurrent identical
// requests — and journaling every result so the cache survives
// restarts. Responses carry a strong ETag over the record's content
// digest; the X-Smart-Cache header says whether the answer was a hit,
// a miss or coalesced into another request's run.
//
// Examples:
//
//	serve -store results/               # listen on :8080 over ./results
//	serve -store results/ -addr :0 -v  # ephemeral port, request logs
//
//	curl -s localhost:8080/v1/run -d '{"Network":"tree","VCs":2,"Load":0.4}'
//	curl -s localhost:8080/v1/sweep -d '{"config":{"Network":"cube","Algorithm":"duato"},"loads":[0.2,0.4,0.6]}'
//
// The bound address is printed to stderr as "serve: serving on
// http://HOST:PORT" so scripts can discover an ephemeral port. SIGINT
// shuts down gracefully: in-flight requests finish (a second SIGINT
// kills the process), the store is synced and the -cpuprofile,
// -memprofile and -trace files are written. A connection whose
// request headers have not arrived within readHeaderTimeout, whose
// request body has not arrived within readTimeout, or that sits idle
// between requests for idleTimeout is closed, and a listener that fails
// ends the process with exit status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"smart/internal/obs"
	"smart/internal/resilience"
	"smart/internal/serve"
	"smart/internal/store"
)

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, counted from the connection's opening for its
// first request and from the first byte for a later one, before the
// server closes the connection: a client that never finishes its
// headers would otherwise hold a connection and its goroutine until
// shutdown.
const readHeaderTimeout = 10 * time.Second

// readTimeout bounds how long a client may take to send a whole
// request, body included, counted from the same start: a client that
// sends less body than its Content-Length would otherwise hold its
// handler until shutdown. A 1 MiB body, the service's cap, fits in it
// at 35 KiB/s. It bounds reading only: a miss whose run takes longer
// still answers.
const readTimeout = 30 * time.Second

// idleTimeout bounds how long a keep-alive connection may wait for its
// next request before the server closes it.
const idleTimeout = readHeaderTimeout

func main() {
	var opts serve.Options
	obsFlags := obs.AddFlags(flag.CommandLine)
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks an ephemeral port)")
	dir := flag.String("store", "", "result store directory (required; created if missing)")
	compact := flag.Bool("compact", false, "compact the store on startup, reclaiming superseded entries")
	flag.IntVar(&opts.Workers, "workers", 0, "max concurrent executions (0 = GOMAXPROCS)")
	flag.IntVar(&opts.Queue, "queue", 64, "misses that may wait for a worker before new ones get 503")
	flag.IntVar(&opts.Shards, "shards", 0, "fabric shards per run (0 = auto; results are bit-identical)")
	flag.Int64Var(&opts.Watchdog, "watchdog", resilience.DefaultWatchdogCycles, "no-progress `cycles` stamped onto configs without their own watchdog (-1 disables)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "serve: -store is required")
		os.Exit(2)
	}
	opts.Logger = obsFlags.Logger()
	stopProf, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	// finish stops the profiles, writing them, and exits 1 if the
	// process failed; every path out of main after this point calls it.
	finish := func(failed bool) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
	}

	st, err := store.Open(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		finish(true)
	}
	if *compact {
		before := st.Stats()
		if err := st.Compact(); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			finish(true)
		}
		after := st.Stats()
		fmt.Fprintf(os.Stderr, "serve: compacted %s: %d records, %d -> %d bytes\n",
			*dir, after.Records, before.Bytes, after.Bytes)
	}

	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()

	svc := serve.New(st, opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		st.Close()
		finish(true)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "serve: store %s holds %d results\n", *dir, st.Len())
	fmt.Fprintf(os.Stderr, "serve: serving on http://%s\n", ln.Addr())

	failed := false
	select {
	case <-ctx.Done():
		stop() // restore default handling: a second SIGINT kills the process
		fmt.Fprintln(os.Stderr, "serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
			failed = true
		}
	case err := <-served:
		// Serve returns before Shutdown only when the listener fails.
		fmt.Fprintln(os.Stderr, "serve:", err)
		failed = true
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		failed = true
	}
	finish(failed)
}
