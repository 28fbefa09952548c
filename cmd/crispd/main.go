// Command crispd serves simulations over HTTP: a long-lived job server
// in front of the shared result store, so any number of crispsim or
// experiments clients (-server URL) sweep against one worker pool and
// each distinct spec simulates once globally.
//
// Usage:
//
//	crispd -store /var/crisp/store -listen :8080
//	crispd -store S -workers 16 -queue 256
//	crispd -store S -pprof localhost:6060   # profiling side listener
//
// Endpoints (see internal/crispd and DESIGN.md). Each kind has a route
// prefix: /v1/runs (sim.RunSpec), /v1/multi (sim.MultiSpec),
// /v1/analyses and /v1/footprints (runner.AnalysisSpec). A job is its
// kind and its key, so its status is asked for under the prefix of the
// kind submitted. There is one way in and one way out:
//
//	POST {prefix}[?wait=1&timeout=30s]   submit a spec
//	GET  {prefix}/{key}                  job status + result
//	GET  /v1/statsz, /healthz            counters, liveness
//
// On SIGINT/SIGTERM the server drains: it refuses fresh work (503) while
// still answering results it holds, finishes and persists in-flight jobs,
// then exits; a second signal cancels the in-flight jobs instead of
// waiting (their file locks are still released on the way out).
// -drain-timeout bounds the graceful phase. -metrics appends one JSON
// record per run the server resolves; a record the file refused makes the
// exit status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"crisp/internal/crispd"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		listen       = flag.String("listen", ":8080", "address to serve the job API on")
		storeDir     = flag.String("store", "", "shared persistent result store directory (strongly recommended: without it a restart loses all results)")
		workers      = flag.Int("workers", runtime.NumCPU(), "max concurrent simulations; bounds every goroutine that simulates")
		queue        = flag.Int("queue", 256, "max jobs queued or running before submissions get 429")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "how long to let in-flight jobs finish on SIGTERM before cancelling them")
		metricsOut   = flag.String("metrics", "", "append per-run cycle-accounting records to this JSONL file")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); keep it off the public listener")
	)
	flag.Parse()

	// The profiling endpoints live on their own listener with their own
	// mux: the job API's mux never grows /debug/pprof/* routes, so an
	// internet-facing -listen cannot leak profiles, and a wedged job
	// queue cannot block profile scrapes.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				fmt.Fprintln(os.Stderr, "crispd: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "crispd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	s, err := crispd.New(context.Background(), crispd.Options{
		Store:        *storeDir,
		Workers:      *workers,
		Queue:        *queue,
		MetricsJSONL: *metricsOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crispd:", err)
		return 1
	}
	defer func() {
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crispd:", err)
			code = max(code, 1)
		}
	}()

	hs := &http.Server{Addr: *listen, Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	store := *storeDir
	if store == "" {
		store = "(none: results are not persisted)"
	}
	fmt.Fprintf(os.Stderr, "crispd: listening on %s, store %s, %d workers, queue %d\n",
		*listen, store, *workers, *queue)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "crispd:", err)
		return 1
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "crispd: %s: draining (in-flight jobs finish and persist; signal again to cancel them)\n", sig)
	}

	// A second signal forces the drain by cancelling the in-flight jobs;
	// their cleanup (lock release, store state) still runs.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "crispd: second signal: cancelling in-flight jobs")
		s.Abort()
	}()

	drainErr := s.Drain(drainCtx)

	// Stop the HTTP listener after the drain so status polls and waited
	// submissions keep working while jobs finish.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	hs.Shutdown(shutCtx) //nolint:errcheck // exiting either way

	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		fmt.Fprintln(os.Stderr, "crispd: drain:", drainErr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "crispd: drained cleanly")
	return 0
}
