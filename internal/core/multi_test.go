package core_test

import (
	"context"
	"reflect"
	"testing"

	"crisp/internal/core"
	"crisp/internal/sim"
)

// TestMultiSkipEquivalence extends the skip-equivalence invariant to the
// lockstep multi-core driver: a co-scheduled pair stepped with merged
// min-across-cores idle skipping must produce, per core, results
// identical to the same pair stepped every shared cycle (DebugNoSkip on
// every core disables the merge). The pairs mix a latency-bound chase
// with a bandwidth hog — asymmetric skip targets, so the min-merge and
// its partial-application clipping are genuinely exercised — and the
// CRISP case tags all loads critical to cover the PRIO issue path. Host
// measurements (wall time, allocs, iteration counts, skip tallies)
// legitimately differ between the paths; everything architectural must
// match exactly.
func TestMultiSkipEquivalence(t *testing.T) {
	pairs := [][2]string{
		{"tailchase", "streambatch"},
		{"pointerchase", "mcf"},
	}
	for _, pair := range pairs {
		for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedCRISP} {
			pair, sched := pair, sched
			t.Run(pair[0]+"+"+pair[1]+"/"+sched.String(), func(t *testing.T) {
				run := func(noskip bool) []*core.Result {
					imgs := []*sim.Image{
						goldenImage(t, pair[0], sched),
						goldenImage(t, pair[1], core.SchedOldestFirst),
					}
					cfgs := make([]sim.Config, 2)
					cfgs[0] = sim.DefaultConfig().WithSched(sched)
					cfgs[1] = sim.DefaultConfig()
					for i := range cfgs {
						cfgs[i].Core.MaxInsts = 40_000
						cfgs[i].Core.UPCWindow = 500
						cfgs[i].Core.DebugNoSkip = noskip
					}
					m, err := sim.RunMultiContext(context.Background(), imgs, cfgs)
					if err != nil {
						t.Fatalf("RunMulti: %v", err)
					}
					for _, r := range m.Cores {
						r.HostNS, r.HostAllocs, r.HostIters, r.SkippedCycles = 0, 0, 0, 0
					}
					return m.Cores
				}
				fast, slow := run(false), run(true)
				for i := range fast {
					if !reflect.DeepEqual(fast[i], slow[i]) {
						t.Errorf("core %d: merged-skip path diverged from per-cycle path:\n"+
							"  cycles      %d vs %d\n"+
							"  insts       %d vs %d\n"+
							"  breakdown   %v vs %v\n"+
							"  headstalls  %d vs %d",
							i, fast[i].Cycles, slow[i].Cycles,
							fast[i].Insts, slow[i].Insts,
							fast[i].Breakdown, slow[i].Breakdown,
							fast[i].ROBHeadStalls, slow[i].ROBHeadStalls)
					}
				}
			})
		}
	}
}

// TestMultiSkipCoverage pins that the merged skip still engages under
// co-scheduling: two DRAM-bound cores running together must cover a
// meaningful fraction of their cycles with merged jumps, and per-core
// iteration accounting must close (HostIters + SkippedCycles == Cycles).
func TestMultiSkipCoverage(t *testing.T) {
	imgs := []*sim.Image{
		goldenImage(t, "mcf", core.SchedOldestFirst),
		goldenImage(t, "pointerchase", core.SchedOldestFirst),
	}
	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	for i := range cfgs {
		cfgs[i].Core.MaxInsts = 40_000
	}
	m, err := sim.RunMultiContext(context.Background(), imgs, cfgs)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	for i, r := range m.Cores {
		if r.HostIters+r.SkippedCycles != r.Cycles {
			t.Errorf("core %d: HostIters %d + SkippedCycles %d != Cycles %d",
				i, r.HostIters, r.SkippedCycles, r.Cycles)
		}
		if r.SkippedFrac() < 0.2 {
			t.Errorf("core %d: merged skip covered only %.3f of cycles, want >= 0.2", i, r.SkippedFrac())
		}
	}
}
