package sim_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestSampledEquivalence pins the sampled simulator's accuracy: with the
// auto schedule, sampled IPC must reproduce full-detail IPC within 2% on
// the acceptance workloads at a matched budget. The budget is large
// enough (5M) for the full run's prefetcher and cache state to reach
// steady state — the regime sampling exists for.
func TestSampledEquivalence(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-detail reference runs are slow")
	}
	s := sim.AutoSampling(5_000_000)
	for _, name := range []string{"mcf", "pointerchase"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workload.ByName(name)
			cfg := sim.DefaultConfig()
			cfg.Core.MaxInsts = s.Total()
			full := sim.Run(w.Build(workload.Ref), cfg)
			set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), s)
			if err != nil {
				t.Fatal(err)
			}
			samp, err := sim.RunSampledContext(context.Background(), set, w.Build(workload.Ref).Prog, sim.DefaultConfig(), s)
			if err != nil {
				t.Fatal(err)
			}
			errPct := (samp.IPC()/full.IPC() - 1) * 100
			t.Logf("%s: full IPC %.4f sampled %.4f err %+.2f%%", name, full.IPC(), samp.IPC(), errPct)
			if math.Abs(errPct) > 2.0 {
				t.Errorf("sampled IPC error %+.2f%% exceeds 2%% (full %.4f, sampled %.4f)",
					errPct, full.IPC(), samp.IPC())
			}
		})
	}
}

// smallSchedule is a fast schedule for structural tests.
var smallSchedule = sim.Sampling{Warm: 20_000, Window: 5_000, Count: 2}

func captureSmall(t *testing.T, name string) *workload.Workload {
	t.Helper()
	return workload.ByName(name)
}

func TestSampledDeterminism(t *testing.T) {
	w := captureSmall(t, "mcf")
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.Ref).Prog
	a, err := sim.RunSampledContext(context.Background(), set, prog, sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunSampledContext(context.Background(), set, prog, sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Insts != b.Insts {
		t.Errorf("restoring the same set twice diverged: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Insts, b.Cycles, b.Insts)
	}
	// A fresh capture of the same schedule is also identical.
	set2, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.RunSampledContext(context.Background(), set2, prog, sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != c.Cycles {
		t.Errorf("recaptured set diverged: %d vs %d cycles", a.Cycles, c.Cycles)
	}
}

// TestSampledParallelMatchesSequential: no simulated field depends on
// GOMAXPROCS. A run under GOMAXPROCS 4 must reproduce the run under 1
// exactly, including the order-sensitive float folds (DRAMAvgLat) and the
// UPC timeline concatenation.
func TestSampledParallelMatchesSequential(t *testing.T) {
	w := captureSmall(t, "mcf")
	sched := sim.Sampling{Warm: 20_000, Window: 5_000, Count: 4}
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.Ref).Prog
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) *core.Result {
		runtime.GOMAXPROCS(procs)
		r, err := sim.RunSampledContext(context.Background(), set, prog, sim.DefaultConfig(), sched)
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock and allocation counters are timing-dependent (and
		// allocs are process-wide, so concurrent windows inflate them);
		// every simulated quantity must match exactly.
		r.HostNS, r.HostAllocs = 0, 0
		return r
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel sampled run diverged from sequential:\n  cycles %d vs %d\n  insts %d vs %d\n  dram_avg_lat %v vs %v\n  upcwindows %d vs %d",
			seq.Cycles, par.Cycles, seq.Insts, par.Insts,
			seq.DRAMAvgLat, par.DRAMAvgLat, len(seq.UPCWindows), len(par.UPCWindows))
	}
}

// TestSampledMatchesOracle: a single-core sampled run is the one-core run
// of the shared window runner, and gives what the runner it replaced
// (sim.RefRunSampledContext, kept as it was but for two calls) gave, every
// simulated field alike. Six kernels, one set each, run under ooo, the CRISP scheduler
// over the kernel's tagged program, and IBDA with a 1K and an unbounded
// IST, each with bop+stream and with stride, under GOMAXPROCS 4. Running
// IBDA windows out of order, or merging any out of order, fails it.
func TestSampledMatchesOracle(t *testing.T) {
	sched := sim.Sampling{Warm: 20_000, Window: 5_000, Count: 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	scrub := func(r *core.Result) *core.Result {
		r.HostNS, r.HostAllocs = 0, 0
		return r
	}
	var tagged, marked int
	for _, name := range []string{"mcf", "lbm", "moses", "pointerchase", "memcached", "bwaves"} {
		w := workload.ByName(name)
		set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), sched)
		if err != nil {
			t.Fatal(err)
		}
		acfg := sim.DefaultConfig()
		acfg.Core.MaxInsts = 60_000
		pipe := sim.AnalyzeTrain(w.Build(workload.Train), w.Build(workload.Train), acfg, crisp.DefaultOptions())
		prog := w.Build(workload.Ref).Prog
		tagged += len(pipe.Analysis.CriticalPCs)
		for _, pf := range []sim.PrefetcherKind{sim.PFBOPStream, sim.PFStride} {
			base := sim.DefaultConfig()
			base.Prefetcher = pf
			ibda1K, ibdaInf := base.WithSched(core.SchedCRISP), base.WithSched(core.SchedCRISP)
			ibda1K.IBDA = &ibda.Config{ISTEntries: 1024, ISTWays: 4, DLTEntries: 32}
			ibdaInf.IBDA = &ibda.Config{DLTEntries: 32}
			for _, tc := range []struct {
				what string
				prog *program.Program
				cfg  sim.Config
			}{
				{"ooo", prog, base},
				{"crisp", pipe.Analysis.Apply(prog), base.WithSched(core.SchedCRISP)},
				{"ibda-1k", prog, ibda1K},
				{"ibda-inf", prog, ibdaInf},
			} {
				want, err := sim.RefRunSampledContext(context.Background(), set, tc.prog, tc.cfg, sched)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunSampledContext(context.Background(), set, tc.prog, tc.cfg, sched)
				if err != nil {
					t.Fatal(err)
				}
				if tc.cfg.IBDA != nil {
					marked += int(got.IssuedCritical)
				}
				if !reflect.DeepEqual(scrub(got), scrub(want)) {
					t.Errorf("%s %s %v: %d cycles, %d insts, the oracle %d cycles, %d insts",
						name, tc.what, pf, got.Cycles, got.Insts, want.Cycles, want.Insts)
				}
			}
		}
	}
	if tagged == 0 || marked == 0 {
		t.Errorf("%d critical PCs tagged, %d IBDA-marked issues: the crisp and ibda cases compare nothing", tagged, marked)
	}
}

// TestSampledCrossConfig exercises the headline sharing property: one
// captured set serves every scheduler and prefetcher config, including
// concurrently.
func TestSampledCrossConfig(t *testing.T) {
	w := captureSmall(t, "mcf")
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), smallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workload.Ref).Prog
	cfgs := make([]sim.Config, 0, 4)
	for _, pf := range []sim.PrefetcherKind{sim.PFBOPStream, sim.PFNone, sim.PFStride, sim.PFGHB} {
		cfg := sim.DefaultConfig()
		cfg.Prefetcher = pf
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, sim.DefaultConfig().WithSched(core.SchedRandom))
	results := make([]*core.Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := sim.RunSampledContext(context.Background(), set, prog, cfg, smallSchedule)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}()
	}
	wg.Wait()
	want := smallSchedule.Window * uint64(smallSchedule.Count)
	for i, r := range results {
		if r == nil {
			continue
		}
		if r.Insts != want {
			t.Errorf("config %d committed %d insts, want %d", i, r.Insts, want)
		}
		if r.SampledWindows != smallSchedule.Count || r.FFInsts != set.FFInsts {
			t.Errorf("config %d sampling metadata wrong: windows %d ff %d", i, r.SampledWindows, r.FFInsts)
		}
	}
	// The scheduler change must actually show up in the timing.
	if results[0] != nil && results[len(cfgs)-1] != nil && results[0].Cycles == results[len(cfgs)-1].Cycles {
		t.Errorf("random scheduler produced identical cycles to oldest-first")
	}
}

func TestAutoSampling(t *testing.T) {
	for _, total := range []uint64{400_000, 1_200_000, 3_000_000, 12_000_000} {
		s := sim.AutoSampling(total)
		if s.Total() != total {
			t.Errorf("AutoSampling(%d).Total() = %d", total, s.Total())
		}
		if s.Skip != 0 {
			t.Errorf("AutoSampling(%d) skips (%d); default is continuous warming", total, s.Skip)
		}
		if detailed := s.Window * uint64(s.Count); detailed*10 != total {
			t.Errorf("AutoSampling(%d) detailed fraction = %d/%d", total, detailed, total)
		}
	}
	if a, b := sim.AutoSampling(1_200_000).Count, sim.AutoSampling(6_000_000).Count; b <= a {
		t.Errorf("larger budgets must add windows: %d vs %d", a, b)
	}
}

func TestSamplingSpecKeysAndValidate(t *testing.T) {
	base := sim.RunSpec{Workload: "mcf", Sampling: &sim.Sampling{Skip: 100, Warm: 200, Window: 300, Count: 4}}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid sampled spec rejected: %v", err)
	}
	variants := []sim.RunSpec{
		{Workload: "mcf", Insts: base.Sampling.Total()},
		{Workload: "mcf", Sampling: &sim.Sampling{Skip: 101, Warm: 200, Window: 300, Count: 4}},
		{Workload: "mcf", Sampling: &sim.Sampling{Skip: 100, Warm: 201, Window: 300, Count: 4}},
		{Workload: "mcf", Sampling: &sim.Sampling{Skip: 100, Warm: 200, Window: 301, Count: 4}},
		{Workload: "mcf", Sampling: &sim.Sampling{Skip: 100, Warm: 200, Window: 300, Count: 5}},
	}
	seen := map[string]int{base.Key(): -1}
	for i, s := range variants {
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("specs %d and %d collide on key %s", i, prev, s.Key())
		}
		seen[s.Key()] = i
	}
	if base.Key() != base.Key() {
		t.Error("sampled key not deterministic")
	}

	bad := []sim.RunSpec{
		{Workload: "mcf", Insts: 1000, Sampling: &sim.Sampling{Warm: 1, Window: 1, Count: 1}},
		{Workload: "mcf", Sampling: &sim.Sampling{Count: 4}},
		{Workload: "mcf", Sampling: &sim.Sampling{Window: 100}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad sampled spec %d validated", i)
		}
	}
}
