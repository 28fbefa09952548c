// Command crispsim runs one workload of the evaluation suite under a
// chosen scheduler configuration and prints the timing results — the
// quickest way to poke at the simulator. Flags assemble a declarative
// sim.RunSpec executed through the shared runner, so -store reuses (and
// feeds) the same persistent result store as cmd/experiments.
//
// Usage:
//
//	crispsim -workload mcf -sched crisp -insts 500000
//	crispsim -workload lbm -sched ooo
//	crispsim -workload moses -sched ibda -ist 1024
//	crispsim -workload mcf -sched crisp -store .crisp-store
//	crispsim -cores tailchase,streambatch -sched crisp
//	crispsim -cores tailchase,streambatch -sched crisp -sampled
//	crispsim -workload mcf -sched crisp -server http://sweepbox:8080
//	crispsim -list
//
// -cores runs a multi-core co-scheduled simulation: the listed workloads
// run on cores 0..n-1 over one shared LLC and DRAM, with -sched applied
// to core 0 (the latency-critical slot) and every neighbour on the OOO
// baseline. Adding -sampled fast-forwards every core functionally to
// shared window boundaries and simulates short detailed lockstep
// windows from a co-scheduled checkpoint set (captured once per
// workload tuple and persisted in -store); schedulers whose state spans
// windows (ibda) are rejected with a clear error rather than silently
// falling back to full detail. -server delegates the simulations to a
// crispd job server, which dedups them against its shared store across
// all connected clients. -metrics appends one JSON record per resolved
// run (its fields: DESIGN.md, "Cycle accounting and telemetry"); a
// record the file refused makes the command exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/crispd"
	"crisp/internal/ibda"
	"crisp/internal/metrics"
	"crisp/internal/runner"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		name       = flag.String("workload", "pointerchase", "workload name (-list to enumerate)")
		sched      = flag.String("sched", "crisp", "scheduler: ooo, crisp, random, ibda, perfect-bp")
		insts      = flag.Uint64("insts", 400_000, "instructions to simulate")
		ist        = flag.Int("ist", 1024, "IBDA instruction-slice-table entries (0 = infinite)")
		rs         = flag.Int("rs", 96, "reservation station entries")
		rob        = flag.Int("rob", 224, "reorder buffer entries")
		cores      = flag.String("cores", "", "comma-separated workloads for a multi-core run; -sched applies to core 0, neighbours run ooo")
		storeDir   = flag.String("store", "", "persist/reuse results and checkpoint sets in this directory (process-safe)")
		server     = flag.String("server", "", "delegate simulations to a crispd job server at this URL (e.g. http://host:8080); excludes -store")
		metricsOut = flag.String("metrics", "", "append per-run cycle-accounting records to this JSONL file")
		list       = flag.Bool("list", false, "list workloads and exit")
		verbose    = flag.Bool("v", false, "print per-load profiles of the hottest loads")
		sampled    = flag.Bool("sampled", false, "sample: fast-forward with functional warming, simulate short detailed windows (schedule from -insts)")
		windows    = flag.Int("windows", 0, "with -sampled: detailed window count (0 = auto)")
		window     = flag.Uint64("window", 0, "with -sampled: instructions per detailed window (0 = auto)")
	)
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-14s %s\n", w.Name, w.Pathology)
		}
		return 0
	}

	spec := sim.RunSpec{Workload: *name, Input: sim.InputRef, Insts: *insts, RS: *rs, ROB: *rob}
	if *sampled {
		s := sim.AutoSampling(*insts)
		if *windows > 0 {
			s.Count = *windows
		}
		if *window > 0 {
			s.Window = *window
		}
		// Keep the budget at -insts: the rest of each window's share is
		// continuous functional warming.
		per := *insts / uint64(s.Count)
		s.Warm = 0
		if per > s.Window {
			s.Warm = per - s.Window
		}
		spec.Insts = 0
		spec.Sampling = &s
	}
	switch *sched {
	case "ooo":
		spec.Sched = sim.SchedOOO
	case "random":
		spec.Sched = sim.SchedRandom
	case "perfect-bp":
		spec.Sched = sim.SchedOOO
		spec.PerfectBP = true
	case "ibda":
		spec = spec.WithIBDA(ibda.Config{ISTEntries: *ist, ISTWays: 4, DLTEntries: 32})
	case "crisp":
		spec = spec.WithCrisp(crisp.DefaultOptions())
	default:
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *sched)
		return 1
	}

	var remote runner.Remote
	if *server != "" {
		remote = crispd.NewClient(*server)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := runner.New(ctx, runner.Options{
		Workers: 1, CacheDir: *storeDir,
		MetricsJSONL: *metricsOut,
		Remote:       remote,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crispsim:", err)
		return 1
	}
	defer func() {
		if err := r.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crispsim:", err)
			code = max(code, 1)
		}
	}()

	if *cores != "" {
		return runMulti(ctx, r, spec, strings.Split(*cores, ","))
	}

	if spec.Crisp != nil {
		// Resolve (or load) the software pipeline first so its summary
		// prints before the timing run, as the two-phase flow runs it.
		a, err := r.Analysis(ctx, runner.AnalysisSpec{Workload: *name, Insts: *insts, Opts: *spec.Crisp})
		if err != nil {
			fmt.Fprintln(os.Stderr, "crispsim:", err)
			return 1
		}
		fmt.Printf("pipeline: %d delinquent loads, %d hard branches, %d critical PCs (%.1f%% dynamic)\n",
			len(a.DelinquentLoads), len(a.HardBranches),
			len(a.CriticalPCs), a.DynCriticalFraction*100)
	}

	res, err := r.Run(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crispsim:", err)
		return 1
	}

	fmt.Println(sim.Describe(*name+"/"+*sched, res))
	if res.SampledWindows > 0 {
		fmt.Printf("sampled: %d detailed windows (%d insts) + %d insts fast-forwarded; host %.0fms detailed + %.0fms capture\n",
			res.SampledWindows, res.Insts, res.FFInsts,
			float64(res.HostNS)/1e6, float64(res.HostFFNS)/1e6)
	}
	fmt.Printf("ROB head stalls %d (%.1f%% of cycles), fetch stalls %d, DRAM reads %d (avg %.0f cyc)\n",
		res.ROBHeadStalls, float64(res.ROBHeadStalls)/float64(res.Cycles)*100,
		res.FetchStallCycle, res.DRAMReads, res.DRAMAvgLat)
	printBreakdown(res)
	fmt.Printf("load latency mean %.0f cyc (p99 %d), dram latency mean %.0f cyc, mlp at miss %.1f, rob occupancy mean %.0f\n",
		res.Hists.LoadLat.Mean(), res.Hists.LoadLat.Quantile(0.99),
		res.Hists.DRAMLat.Mean(), res.Hists.MLPAtMiss.Mean(), res.Hists.OccROB.Mean())
	if res.IssuedCritical > 0 {
		fmt.Printf("critical issues %d, older-ready bypassed per issue %.1f\n",
			res.IssuedCritical, float64(res.QueueJumpSum)/float64(res.IssuedCritical))
	}

	if *verbose {
		type kv struct {
			pc int
			lp *core.LoadProf
		}
		var loads []kv
		for pc, lp := range res.Loads {
			loads = append(loads, kv{pc, lp})
		}
		sort.Slice(loads, func(i, j int) bool { return loads[i].lp.LLCMiss > loads[j].lp.LLCMiss })
		fmt.Println("hottest loads (by LLC misses):")
		for i, l := range loads {
			if i == 10 {
				break
			}
			fmt.Printf("  pc %4d: execs %7d llc-misses %6d (ratio %.2f) amat %5.0f mlp %.1f head-stall %d\n",
				l.pc, l.lp.Count, l.lp.LLCMiss, l.lp.LLCMissRatio(), l.lp.AMAT(), l.lp.AvgMLP(), l.lp.HeadStall)
		}
	}
	return 0
}

// printBreakdown prints one core's commit-slot split.
func printBreakdown(res *core.Result) {
	b := &res.Breakdown
	pct := func(v uint64) float64 { return float64(v) / float64(b.Total()) * 100 }
	fmt.Printf("slots: retired %.1f%%, frontend %.1f%%, branch %.1f%%, mem l1/llc/dram %.1f/%.1f/%.1f%%, core %.1f%%\n",
		b.CommittedFrac()*100,
		pct(b.Stalls[metrics.Frontend]), pct(b.Stalls[metrics.BranchRedirect]),
		pct(b.Stalls[metrics.MemL1]), pct(b.Stalls[metrics.MemLLC]), pct(b.Stalls[metrics.MemDRAM]),
		pct(b.Stalls[metrics.CoreROBFull]+b.Stalls[metrics.CoreRSFull]+b.Stalls[metrics.CoreLQFull]+
			b.Stalls[metrics.CoreSQFull]+b.Stalls[metrics.CorePort]+b.Stalls[metrics.CoreDep]+b.Stalls[metrics.CoreExec]))
}

// runMulti executes a co-scheduled multi-core run: names[i] on core i,
// with the command-line scheduler configuration applied to core 0 and
// every neighbour on the OOO baseline over the shared LLC and DRAM.
// With -sampled the lead clause's schedule lifts to the spec level —
// co-scheduling needs every core at the same window boundaries — and
// Validate rejects combinations the sampled path cannot honour (IBDA's
// runtime table marking spans windows) instead of silently running
// full detail.
func runMulti(ctx context.Context, r *runner.Runner, lead sim.RunSpec, names []string) int {
	mspec := sim.MultiSpec{Cores: make([]sim.RunSpec, len(names))}
	mspec.Sampling = lead.Sampling
	lead.Sampling = nil
	for i, n := range names {
		n = strings.TrimSpace(n)
		if i == 0 {
			mspec.Cores[i] = lead
			mspec.Cores[i].Workload = n
		} else {
			mspec.Cores[i] = sim.RunSpec{Workload: n, Input: sim.InputRef,
				Insts: lead.Insts, RS: lead.RS, ROB: lead.ROB}
		}
	}
	if err := mspec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "crispsim:", err)
		return 2
	}
	m, err := r.RunMulti(ctx, mspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crispsim:", err)
		return 1
	}
	for i, res := range m.Cores {
		sched := "ooo"
		if i == 0 {
			sched = schedName(mspec.Cores[0])
		}
		fmt.Println(sim.Describe(fmt.Sprintf("core%d %s/%s", i, mspec.Cores[i].Workload, sched), res))
		printBreakdown(res)
	}
	llc, bw := m.LLCOccupancyShare(), m.DRAMBandwidthShare()
	fmt.Printf("shared llc: %d accesses, %d misses; per-core share", m.LLC.Accesses, m.LLC.Misses)
	for i := range m.Cores {
		fmt.Printf(" %.2f", llc.Share(i))
	}
	fmt.Printf("\nshared dram: %d reads, %d writes; bandwidth share", m.DRAM.Reads, m.DRAM.Writes)
	for i := range m.Cores {
		fmt.Printf(" %.2f", bw.Share(i))
	}
	fmt.Println()
	if m.SampledWindows > 0 {
		fmt.Printf("sampled: %d co-scheduled windows, %d insts fast-forwarded across cores; host %.0fms detailed + %.0fms capture\n",
			m.SampledWindows, m.FFInsts, float64(m.HostNS)/1e6, float64(m.HostFFNS)/1e6)
	}
	return 0
}

// schedName recovers the display name of the lead clause's scheduler.
func schedName(s sim.RunSpec) string {
	switch {
	case s.IBDA != nil:
		return "ibda"
	case s.Crisp != nil:
		return "crisp"
	case s.PerfectBP:
		return "perfect-bp"
	case s.Sched == sim.SchedRandom:
		return "random"
	default:
		return "ooo"
	}
}
