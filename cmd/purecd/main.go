// Command purecd is the purec compile-and-run daemon: an HTTP service
// over the tool chain that accepts {source, inputs, options} requests,
// compiles each distinct program once (in-memory cache, singleflight),
// persists build products to an on-disk cache so a restarted daemon
// serves known programs without re-entering the compile chain, executes
// every request in a pooled Process (reset-don't-reallocate), and
// bounds its own load with a global concurrency limit, a timed wait
// queue and per-program run quotas.
//
// Usage:
//
//	purecd [flags]
//
//	-addr HOST:PORT       listen address (default :8321)
//	-cache-dir DIR        persistent program cache directory (empty =
//	                      in-memory caching only)
//	-cache-entries N      on-disk cache entry bound (0 = unlimited)
//	-cache-size N         in-memory program cache bound (default 128)
//	-max-concurrent N     builds+runs executing at once (default
//	                      GOMAXPROCS)
//	-queue-depth N        requests allowed to wait for a run slot
//	                      (default 4×max-concurrent); beyond it: 503
//	-queue-timeout D      max wait for a run slot (default 5s); after
//	                      it: 503
//	-per-program N        concurrent runs of one program (default
//	                      max-concurrent); beyond it: 429
//	-pool-size N          idle Processes retained per program (default
//	                      max-concurrent)
//	-max-source BYTES     request body bound (default 4MiB; longer is a 413)
//
// Endpoints: POST /run (body: {"source": "...", "defines": {...},
// "options": {"backend" gcc|icc, "engine" tape|closure (default tape),
// "cores", "sequential", "schedule", "memoize"}}; response body is the
// guest's stdout byte-for-byte, run metadata in X-Purecd-* headers and
// trailers), GET /stats, GET /healthz.
//
// SIGINT/SIGTERM drain: the listener closes immediately, in-flight
// requests run to completion (bounded by -queue-timeout plus the runs
// themselves), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"purec/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent program cache directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 0, "on-disk cache entry bound (0 = unlimited)")
	cacheSize := flag.Int("cache-size", 0, "in-memory program cache bound (0 = default 128)")
	maxConc := flag.Int("max-concurrent", 0, "builds+runs executing at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "requests allowed to wait for a run slot (0 = 4×max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max wait for a run slot (0 = 5s)")
	perProgram := flag.Int("per-program", 0, "concurrent runs of one program (0 = max-concurrent)")
	poolSize := flag.Int("pool-size", 0, "idle Processes retained per program (0 = max-concurrent)")
	maxSource := flag.Int64("max-source", 0, "request body bound in bytes (0 = 4MiB)")
	flag.Parse()

	srv, err := serve.New(serve.Options{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		QueueTimeout:    *queueTimeout,
		PerProgramLimit: *perProgram,
		PoolSize:        *poolSize,
		CacheDir:        *cacheDir,
		DiskEntries:     *cacheEntries,
		CacheSize:       *cacheSize,
		MaxSourceBytes:  *maxSource,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "purecd: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "purecd: listening on %s", *addr)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, " (disk cache %s)", *cacheDir)
		}
		fmt.Fprintln(os.Stderr)
		done <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "purecd: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "purecd: %v, draining in-flight requests\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "purecd: shutdown: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "purecd: drained")
	}
}
