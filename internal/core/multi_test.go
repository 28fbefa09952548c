package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/core"
	"crisp/internal/dram"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
	"crisp/internal/sim"
)

// coRunCases are the co-runs the multi-core driver is held to: a
// latency-bound chase and a memory-bound mcf each alone (a single-core run
// is the one-core co-run), a latency-bound chase beside a bandwidth hog,
// so the cores sleep for very different spans, and all four kernels on
// four cores. The budgets are unequal, so the cores drop out at different
// cycles and the survivors run on alone; in pointerchase+mcf under ooo,
// mcf commits in the cycle the first core out, pointerchase, finishes.
var coRunCases = []struct {
	names []string
	insts []uint64
}{
	{[]string{"pointerchase"}, []uint64{25_000}},
	{[]string{"mcf"}, []uint64{40_000}},
	{[]string{"tailchase", "streambatch"}, []uint64{40_000, 30_000}},
	{[]string{"pointerchase", "mcf"}, []uint64{25_000, 40_000}},
	{[]string{"tailchase", "streambatch", "pointerchase", "mcf"}, []uint64{40_000, 25_000, 35_000, 30_000}},
}

// coRunOut is what a co-run computes, host measurements left out.
type coRunOut struct {
	Cores []*core.Result
	LLC   []cache.Stats // per requester, then the total
	DRAM  []dram.Stats  // the same
}

// coRun runs names[i] on core i of one shared hierarchy under Table 1's
// configuration with bop+stream on every L1D, a budget of insts[i] and a
// 500-cycle UPC window; core 0 runs sched (CRISP with every load tagged
// critical: the PRIO issue path), the others oldest-first. drive is the driver
// under test. Host-side measurements (wall time, allocations, iteration
// and skip tallies) legitimately differ between drivers and are zeroed.
func coRun(t *testing.T, names []string, insts []uint64, sched core.SchedulerKind, noskip bool,
	drive func([]*core.Core, func() bool) []*core.Result) coRunOut {
	t.Helper()
	sh := cache.NewSharedHierarchy(cache.DefaultHierConfig(), len(names))
	cores := make([]*core.Core, len(names))
	for i, name := range names {
		s := core.SchedOldestFirst
		if i == 0 {
			s = sched
		}
		cfg := sim.DefaultConfig().WithSched(s).Core
		cfg.MaxInsts = insts[i]
		cfg.UPCWindow = 500
		cfg.DebugNoSkip = noskip
		img := goldenImage(t, name, s)
		view := sh.Views[i]
		view.L1D.SetPrefetcher(prefetch.NewBOPStream())
		em := emu.New(img.Prog, img.Mem)
		for r, v := range img.Regs {
			em.SetReg(r, v)
		}
		cores[i] = core.New(cfg, img.Prog, em, view, nil)
	}
	out := coRunOut{Cores: drive(cores, nil)}
	for i, r := range out.Cores {
		r.HostNS, r.HostAllocs, r.HostIters, r.SkippedCycles = 0, 0, 0, 0
		out.LLC = append(out.LLC, sh.LLC.RequesterStats(i))
		out.DRAM = append(out.DRAM, sh.Mem.RequesterStats(i))
	}
	out.LLC = append(out.LLC, sh.LLC.Stats())
	out.DRAM = append(out.DRAM, sh.Mem.Stats())
	return out
}

// forCoRuns runs check on every co-run case under both schedulers on
// core 0, one subtest each.
func forCoRuns(t *testing.T, check func(t *testing.T, names []string, insts []uint64, sched core.SchedulerKind)) {
	for _, tc := range coRunCases {
		for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedCRISP} {
			tc, sched := tc, sched
			t.Run(strings.Join(tc.names, "+")+"/"+sched.String(), func(t *testing.T) {
				check(t, tc.names, tc.insts, sched)
			})
		}
	}
}

// diffCoRuns reports every core, shared-level row or DRAM row on which two
// co-runs differ.
func diffCoRuns(t *testing.T, what string, got, want coRunOut) {
	t.Helper()
	for i := range want.Cores {
		g, w := got.Cores[i], want.Cores[i]
		if !reflect.DeepEqual(g, w) {
			t.Errorf("core %d: %s:\n"+
				"  cycles      %d vs %d\n"+
				"  insts       %d vs %d\n"+
				"  co insts    %d vs %d\n"+
				"  co cycles   %d vs %d\n"+
				"  breakdown   %v vs %v\n"+
				"  upcwindows  %d vs %d entries",
				i, what, g.Cycles, w.Cycles, g.Insts, w.Insts, g.CoInsts, w.CoInsts, g.CoCycles, w.CoCycles,
				g.Breakdown, w.Breakdown, len(g.UPCWindows), len(w.UPCWindows))
		}
	}
	if !reflect.DeepEqual(got.LLC, want.LLC) {
		t.Errorf("%s: shared LLC stats %+v vs %+v", what, got.LLC, want.LLC)
	}
	if !reflect.DeepEqual(got.DRAM, want.DRAM) {
		t.Errorf("%s: DRAM stats %+v vs %+v", what, got.DRAM, want.DRAM)
	}
}

// TestRunMultiMatchesOracle holds the per-core sleeping driver to the
// lockstep driver it replaced (core.RefRunMulti, which steps every live
// core every cycle and jumps only when all of them can, to the least
// target): every core's Result but its host counters — CoInsts/CoCycles,
// the UPC timeline and the breakdown included — and every shared-level
// statistic must match. Mutation checks: waking a core one cycle late
// (applySkip(t+1)) jumps past a wakeup, which then waits a whole turn of
// the wheel, and the core trips the no-commit watchdog (this test and
// TestMultiSkipEquivalence); finalizing the first core out inside the
// pass, before the cores after it step that cycle, moves mcf's CoInsts in
// pointerchase+mcf/ooo (32981 vs 32985), which only this test sees.
func TestRunMultiMatchesOracle(t *testing.T) {
	forCoRuns(t, func(t *testing.T, names []string, insts []uint64, sched core.SchedulerKind) {
		got := coRun(t, names, insts, sched, false, core.RunMulti)
		want := coRun(t, names, insts, sched, false, core.RefRunMulti)
		diffCoRuns(t, "RunMulti diverged from the lockstep oracle", got, want)
	})
}

// TestMultiSkipEquivalence extends the skip-equivalence invariant to the
// multi-core driver: cores that sleep to their own next events must
// produce, per core and at the shared levels, results identical to the
// same co-run stepped every cycle (DebugNoSkip on every core). The cases
// mix latency-bound chases with a bandwidth hog, so the cores' sleeps are
// of very different lengths and interleave with a neighbour's steps.
func TestMultiSkipEquivalence(t *testing.T) {
	forCoRuns(t, func(t *testing.T, names []string, insts []uint64, sched core.SchedulerKind) {
		fast := coRun(t, names, insts, sched, false, core.RunMulti)
		slow := coRun(t, names, insts, sched, true, core.RunMulti)
		diffCoRuns(t, "sleeping path diverged from per-cycle path", fast, slow)
	})
}

// TestMultiSkipCoverage pins that per-core sleeping engages under
// co-scheduling and that per-core iteration accounting closes
// (HostIters + SkippedCycles == Cycles). Two DRAM-bound cores must each
// skip a meaningful fraction of their cycles. On four cores, two
// tailchase chasers beside two streambatch hogs, a chaser must not be
// stepped through the cycles its neighbours work: Σ HostIters stays
// under 100k (stepping every live core while any works takes ~206k).
func TestMultiSkipCoverage(t *testing.T) {
	run := func(names []string, insts uint64) []*core.Result {
		imgs := make([]*sim.Image, len(names))
		cfgs := make([]sim.Config, len(names))
		for i, name := range names {
			imgs[i] = goldenImage(t, name, core.SchedOldestFirst)
			cfgs[i] = sim.DefaultConfig()
			cfgs[i].Core.MaxInsts = insts
		}
		m, err := sim.RunMultiContext(context.Background(), imgs, cfgs)
		if err != nil {
			t.Fatalf("RunMulti: %v", err)
		}
		for i, r := range m.Cores {
			if r.HostIters+r.SkippedCycles != r.Cycles {
				t.Errorf("%v core %d: HostIters %d + SkippedCycles %d != Cycles %d",
					names, i, r.HostIters, r.SkippedCycles, r.Cycles)
			}
		}
		return m.Cores
	}
	for i, r := range run([]string{"mcf", "pointerchase"}, 40_000) {
		if r.SkippedFrac() < 0.2 {
			t.Errorf("core %d: sleeping covered only %.3f of cycles, want >= 0.2", i, r.SkippedFrac())
		}
	}
	var iters uint64
	for _, r := range run([]string{"tailchase", "streambatch", "tailchase", "streambatch"}, 40_000) {
		iters += r.HostIters
	}
	if iters > 100_000 {
		t.Errorf("4-core tailchase/streambatch co-run took %d loop iterations, want <= 100000", iters)
	}
}
