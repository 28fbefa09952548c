// Command experiments regenerates the paper's tables and figures on the
// simulated system. Each figure prints an aligned text table (use -csv for
// machine-readable output).
//
// Every requested figure's simulations are submitted to one shared
// worker pool up front: identical runs (the OOO baselines and train
// profiles that Figures 7, 8, 10, 12 and the prefetcher study share) are
// executed once, and -j bounds the parallelism. With -store, results are
// persisted keyed by spec hash + code version and sampled-simulation
// checkpoint sets are persisted in a binary codec, so an interrupted
// sweep (Ctrl-C, -timeout) resumes where it stopped and a repeated
// invocation completes from the store in seconds.
//
// The store is safe to share between concurrent processes: advisory
// file locks guarantee each spec simulates and each checkpoint schedule
// fast-forwards once globally.
//
// Usage:
//
//	experiments -all                 # every table and figure
//	experiments -all -j 8 -store .crisp-store
//	experiments -fig 7               # one figure
//	experiments -fig 9 -insts 1e6    # bigger instruction budget
//	experiments -fig 7 -only mcf,lbm # subset of the suite
//	experiments -fig 7 -server http://sweepbox:8080   # crispd job server
//	experiments -fig 7 -cpuprofile cpu.out -memprofile mem.out
//
// -server delegates every simulation to a crispd job server: the server
// owns the store and dedups submissions across all connected clients,
// so n harness processes pointed at one server cost each spec once and
// each prints the complete (identical) figure output. That is how a
// sweep scales past one process.
//
// The text output ends with footers read from the runner's Stats: the
// speed of the detailed simulations and the cost of the checkpoint
// captures this process executed. -metrics appends one JSON record per
// resolved run (its fields: DESIGN.md, "Cycle accounting and
// telemetry"); a record the file refused makes the command exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crisp/internal/crispd"
	"crisp/internal/harness"
	"crisp/internal/runner"
)

func main() {
	// Exit via a named function so deferred cleanups (profile flushes,
	// progress-line teardown) run; os.Exit in the flag-error paths used
	// to skip them and truncate CPU profiles.
	os.Exit(run())
}

func run() (code int) {
	var (
		fig        = flag.String("fig", "", "figure to run: 1, 4, 7, 8, 9, 10, 11, 12, 3.1, pf, cycles, sampling, colocate, colocate-sampled")
		table      = flag.String("table", "", "table to run: 1")
		all        = flag.Bool("all", false, "run every experiment")
		insts      = flag.Uint64("insts", 400_000, "instructions simulated per run")
		only       = flag.String("only", "", "comma-separated workload subset")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jobs       = flag.Int("j", runtime.NumCPU(), "max concurrent simulations")
		storeDir   = flag.String("store", "", "persist results and checkpoint sets in this directory, shared safely between processes")
		server     = flag.String("server", "", "delegate simulations to a crispd job server at this URL; excludes -store")
		metricsOut = flag.String("metrics", "", "append per-run cycle-accounting records to this JSONL file")
		timeout    = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		progress   = flag.Bool("progress", true, "print a progress line to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if !*all && *fig == "" && *table == "" {
		flag.Usage()
		return 2
	}

	var onlyNames []string
	if *only != "" {
		onlyNames = strings.Split(*only, ",")
		if err := runner.ValidateWorkloads(onlyNames); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// Ctrl-C cancels the sweep mid-simulation; with -store the completed
	// runs are already persisted and the next invocation resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var remote runner.Remote
	if *server != "" {
		remote = crispd.NewClient(*server)
	}

	r, err := runner.New(ctx, runner.Options{
		Workers: *jobs, CacheDir: *storeDir,
		MetricsJSONL: *metricsOut,
		Remote:       remote,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	defer func() {
		if err := r.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			code = max(code, 1)
		}
	}()
	lab := harness.NewLabWithRunner(*insts, r)
	lab.Only = onlyNames
	lab.HostNotes = !*csv

	wantFig := func(name string) bool { return *all || *fig == name }

	// Phase 1: generate. Each figure submits its whole spec set to the
	// shared pool; nothing is waited on yet, so -all saturates the pool
	// across figure boundaries instead of running one figure at a time.
	type pendingFigure struct {
		p     *harness.Pending
		start time.Time
	}
	var figures []pendingFigure
	for _, f := range []struct {
		name  string
		build func() *harness.Pending
	}{
		{"1", func() *harness.Pending { return lab.Figure1Skip(200, 60, 400) }},
		{"3.1", lab.Section31},
		{"4", lab.Figure4},
		{"7", lab.Figure7},
		{"8", lab.Figure8},
		{"9", lab.Figure9},
		{"10", lab.Figure10},
		{"11", lab.Figure11},
		{"12", lab.Figure12},
		{"pf", lab.PrefetcherSensitivity},
		{"cycles", lab.CycleAccounting},
		{"sampling", lab.SamplingValidation},
		{"colocate", lab.Colocate},
		{"colocate-sampled", lab.ColocateSampled},
	} {
		if wantFig(f.name) {
			figures = append(figures, pendingFigure{p: f.build(), start: time.Now()})
		}
	}

	stopProgress := func() {}
	if *progress && len(figures) > 0 {
		stopProgress = startProgress(r)
	}
	defer stopProgress()

	if *all || *table == "1" {
		fmt.Print(lab.Table1())
		fmt.Println()
	}

	// Phase 2: resolve and print in presentation order.
	for _, pf := range figures {
		t, err := pf.p.Table(ctx)
		if err != nil {
			stopProgress()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			if ctx.Err() != nil && *storeDir != "" {
				fmt.Fprintf(os.Stderr, "experiments: completed runs are cached in %s; re-run to resume\n", *storeDir)
			}
			return 1
		}
		if !*csv {
			t.Notes = append(t.Notes, fmt.Sprintf("elapsed %.1fs at %d insts/run", time.Since(pf.start).Seconds(), *insts))
			if n := lab.HostThroughputNote(); n != "" {
				t.Notes = append(t.Notes, n)
			}
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Format())
		}
		fmt.Println()
	}
	stopProgress()

	s := r.Stats()
	if s.DetailNS > 0 && !*csv {
		fmt.Printf("# host throughput: %.2f simulated MIPS (%d insts in %.1fs of core.Run)\n",
			float64(s.DetailInsts)*1e3/float64(s.DetailNS), s.DetailInsts, float64(s.DetailNS)/1e9)
	}
	if s.CaptureNS > 0 && !*csv {
		fmt.Printf("# fast-forward: %d checkpoint sets captured in %.1fs (%d insts warmed)\n",
			s.CkptCaptured, float64(s.CaptureNS)/1e9, s.WarmInsts)
	}
	if !*csv && (s.DiskHits > 0 || s.CkptDiskHits > 0 || s.LockWaitNS > 0) {
		fmt.Printf("# store: %d results loaded from %s, %d simulations executed\n",
			s.DiskHits, *storeDir, s.Executed)
		fmt.Printf("# store: %d checkpoint sets captured, %d loaded from disk, %.2fs blocked on cross-process locks\n",
			s.CkptCaptured, s.CkptDiskHits, float64(s.LockWaitNS)/1e9)
	}
	if !*csv && s.RemoteRuns > 0 {
		fmt.Printf("# server: %d tasks resolved by %s\n", s.RemoteRuns, *server)
	}
	return 0
}

// startProgress prints a live "done/started" job counter to stderr until
// the returned stop function is called.
func startProgress(r *runner.Runner) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				fmt.Fprintf(os.Stderr, "\r%60s\r", "")
				return
			case <-tick.C:
				s := r.Stats()
				fmt.Fprintf(os.Stderr, "\r%d/%d jobs done (%d simulated, %d from cache)   ",
					s.Done, s.Started, s.Executed, s.DiskHits)
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(done)
			<-finished
		}
	}
}
