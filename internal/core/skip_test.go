package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/core"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
	"crisp/internal/sim"
)

// TestSkipEquivalence pins the tentpole invariant of next-event idle-cycle
// skipping: with DebugNoSkip the core steps every simulated cycle through
// the full stage loop; without it, provably idle intervals are jumped and
// bulk-charged. The two paths must produce identical results — every
// counter, the exact cycle breakdown, the occupancy/latency histograms,
// the per-PC load and branch profiles, and the UPC timeline — on a
// latency-bound pointer chase, a DRAM-thrashing kernel (mcf), a branchy
// one (xalancbmk) and one whose DRAM banks queue loads for longer than the
// wakeup wheel spans (bwaves, see TestWakeupsFireOnTime), under both the
// baseline and CRISP schedulers (the CRISP cases tag all loads critical,
// so the PRIO path is exercised too); mcf also in a 64-entry RS / 128-entry
// ROB window, whose scheduler vectors are two words, not Table 1's four.
// UPCWindow is set off the occupancy-sample period so the window-boundary
// and sample-boundary clips both land mid-skip.
func TestSkipEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		rs, rob int // 0, 0 is Table 1's window
	}{{"pointerchase", 0, 0}, {"mcf", 0, 0}, {"xalancbmk", 0, 0}, {"bwaves", 0, 0}, {"mcf", 64, 128}}
	for _, tc := range cases {
		for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedCRISP} {
			name, sched := tc.name, sched
			sub := name + "/" + sched.String()
			if tc.rs != 0 {
				sub = fmt.Sprintf("%s/%drs_%drob/%s", name, tc.rs, tc.rob, sched)
			}
			t.Run(sub, func(t *testing.T) {
				run := func(noskip bool) *core.Result {
					cfg := sim.DefaultConfig().WithSched(sched)
					if tc.rs != 0 {
						cfg.Core.RSSize, cfg.Core.ROBSize = tc.rs, tc.rob
					}
					cfg.Core.MaxInsts = 60_000
					cfg.Core.UPCWindow = 500
					cfg.Core.DebugNoSkip = noskip
					r := sim.Run(goldenImage(t, name, sched), cfg)
					// Host-side measurements legitimately differ between
					// the two paths; everything else must match exactly.
					r.HostNS, r.HostAllocs, r.HostIters, r.SkippedCycles = 0, 0, 0, 0
					return r
				}
				fast, slow := run(false), run(true)
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("skip path diverged from per-cycle path:\n"+
						"  cycles      %d vs %d\n"+
						"  insts       %d vs %d\n"+
						"  breakdown   %v vs %v\n"+
						"  headstalls  %d vs %d\n"+
						"  fetchstall  %d vs %d\n"+
						"  upcwindows  %d vs %d entries",
						fast.Cycles, slow.Cycles,
						fast.Insts, slow.Insts,
						fast.Breakdown, slow.Breakdown,
						fast.ROBHeadStalls, slow.ROBHeadStalls,
						fast.FetchStallCycle, slow.FetchStallCycle,
						len(fast.UPCWindows), len(slow.UPCWindows))
				}
			})
		}
	}
}

// TestSkipCoverage pins that skipping actually engages where it matters:
// on the DRAM-bound kernel the majority of simulated cycles must be
// covered by next-event jumps (the ISSUE's SkippedCycles/Cycles >= 0.5
// acceptance bar), and the per-cycle path must report none.
func TestSkipCoverage(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = 60_000
	r := sim.Run(goldenImage(t, "mcf", core.SchedOldestFirst), cfg)
	if r.SkippedFrac() < 0.5 {
		t.Errorf("mcf skipped fraction = %.3f, want >= 0.5 (skipped %d of %d cycles)",
			r.SkippedFrac(), r.SkippedCycles, r.Cycles)
	}
	if r.HostIters+r.SkippedCycles != r.Cycles {
		t.Errorf("iteration accounting broken: HostIters %d + SkippedCycles %d != Cycles %d",
			r.HostIters, r.SkippedCycles, r.Cycles)
	}
	cfg.Core.DebugNoSkip = true
	if r := sim.Run(goldenImage(t, "mcf", core.SchedOldestFirst), cfg); r.SkippedCycles != 0 {
		t.Errorf("DebugNoSkip run reported %d skipped cycles", r.SkippedCycles)
	}
}

// TestWakeupsFireOnTime runs the cycle loop with the wakeup wheel's
// contract asserted on every iteration (core.RunChecked: no wakeup is
// scheduled for the current cycle, no jump passes a pending one): bwaves
// under sim.DefaultConfig, whose loads queue behind a DRAM bank for longer
// than the wheel spans, so this is also where the suite takes the overflow
// heap; and a latency-bound core beside a DRAM-bound one on one clock, each
// sleeping to its own next event while the other steps.
func TestWakeupsFireOnTime(t *testing.T) {
	newCore := func(name string, sched core.SchedulerKind) *core.Core {
		cfg := sim.DefaultConfig().WithSched(sched)
		cfg.Core.MaxInsts = 40_000
		img := goldenImage(t, name, sched)
		hier := cache.NewHierarchy(cache.DefaultHierConfig())
		hier.L1D.SetPrefetcher(prefetch.NewBOPStream())
		em := emu.New(img.Prog, img.Mem)
		for r, v := range img.Regs {
			em.SetReg(r, v)
		}
		return core.New(cfg.Core, img.Prog, em, hier, nil)
	}
	for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedCRISP} {
		if far := core.RunChecked(t, newCore("bwaves", sched)); far == 0 {
			t.Errorf("bwaves/%s: no wakeup ever went to the overflow heap", sched)
		}
		core.RunChecked(t, newCore("pointerchase", sched), newCore("mcf", core.SchedOldestFirst))
	}
}
