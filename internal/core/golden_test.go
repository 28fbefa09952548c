package core_test

// Golden equivalence test for the scheduler/memory hot-path overhaul: the
// incremental BID/PRIO wakeup scheduler, the word-parallel pickers, and
// the emulator page cache must be cycle-exact with the original
// scan-per-cycle implementation. The constants below were recorded from
// the seed implementation (full RS rescan each cycle, allocation per
// cycle, map lookup per access) on two deterministic workloads; any drift
// in Cycles, Insts, or the CRISP diagnostics is a behavior change, not an
// optimization.

import (
	"context"
	"fmt"
	"testing"

	"crisp/internal/core"
	"crisp/internal/isa"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

const goldenInsts = 60_000

type goldenCase struct {
	workload string
	rs, rob  int // 0, 0 is Table 1's 96-entry RS / 224-entry ROB
	sched    core.SchedulerKind
	cycles   uint64
	insts    uint64
	// CRISP-only diagnostics; zero for the other policies.
	queueJumpSum   uint64
	issuedCritical uint64
}

func (tc goldenCase) name() string {
	if tc.rs == 0 {
		return tc.workload + "/" + tc.sched.String()
	}
	return fmt.Sprintf("%s/%drs_%drob/%s", tc.workload, tc.rs, tc.rob, tc.sched)
}

// The windowed rows were recorded at the last commit whose select was an
// argmin over age stamps: a 180-entry ROB does not fill its 256-entry ring
// (and its 64-entry RS fills long before the ROB does), a 448-entry ROB
// spans eight 64-bit words.
var goldenCases = []goldenCase{
	{"pointerchase", 0, 0, core.SchedOldestFirst, 72672, 60000, 0, 0},
	{"pointerchase", 0, 0, core.SchedCRISP, 70793, 60000, 286371, 76258},
	{"pointerchase", 0, 0, core.SchedRandom, 75224, 60000, 0, 0},
	{"mcf", 0, 0, core.SchedOldestFirst, 65952, 60000, 0, 0},
	{"mcf", 0, 0, core.SchedCRISP, 63879, 60000, 320412, 79339},
	{"mcf", 0, 0, core.SchedRandom, 65410, 60000, 0, 0},
	{"deepsjeng", 64, 180, core.SchedOldestFirst, 63553, 60000, 0, 0},
	{"deepsjeng", 64, 180, core.SchedCRISP, 63428, 60000, 41650, 12367},
	{"deepsjeng", 64, 180, core.SchedRandom, 62829, 60000, 0, 0},
	{"lbm", 192, 448, core.SchedOldestFirst, 80279, 60000, 0, 0},
	{"lbm", 192, 448, core.SchedCRISP, 77112, 60000, 61904, 12699},
	{"lbm", 192, 448, core.SchedRandom, 77041, 60000, 0, 0},
}

// goldenImage builds the ref image for a case; for the CRISP policy every
// static load carries the critical prefix so the PRIO path, queue-jump
// diagnostic, and store-forwarding wakeups are all exercised without
// running the full software pipeline.
func goldenImage(t *testing.T, name string, sched core.SchedulerKind) *sim.Image {
	t.Helper()
	img := workload.ByName(name).Build(workload.Ref)
	if sched == core.SchedCRISP {
		p := img.Prog.Clone()
		var pcs []int
		for pc := range p.Insts {
			if p.Insts[pc].Op == isa.OpLoad {
				pcs = append(pcs, pc)
			}
		}
		p.SetCritical(pcs)
		img.Prog = p
	}
	return img
}

func TestGoldenSchedulerEquivalence(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name(), func(t *testing.T) {
			cfg := sim.DefaultConfig()
			if tc.rs != 0 {
				cfg.Core.RSSize, cfg.Core.ROBSize = tc.rs, tc.rob
			}
			cfg.Core.MaxInsts = goldenInsts
			r := sim.Run(goldenImage(t, tc.workload, tc.sched), cfg.WithSched(tc.sched))
			if r.Cycles != tc.cycles {
				t.Errorf("Cycles = %d, want %d (IPC %.6f, want %.6f)",
					r.Cycles, tc.cycles, r.IPC(), float64(tc.insts)/float64(tc.cycles))
			}
			if r.Insts != tc.insts {
				t.Errorf("Insts = %d, want %d", r.Insts, tc.insts)
			}
			if r.QueueJumpSum != tc.queueJumpSum {
				t.Errorf("QueueJumpSum = %d, want %d", r.QueueJumpSum, tc.queueJumpSum)
			}
			if r.IssuedCritical != tc.issuedCritical {
				t.Errorf("IssuedCritical = %d, want %d", r.IssuedCritical, tc.issuedCritical)
			}
		})
	}
}

// TestGoldenMultiEquivalence pins one 2-core lockstep co-run (RunMulti
// reaches the scheduler only through stepCycle): a CRISP core with every
// load critical beside an oldest-first neighbour over the shared LLC/DRAM.
func TestGoldenMultiEquivalence(t *testing.T) {
	want := []goldenCase{
		{"pointerchase", 0, 0, core.SchedCRISP, 51584, 40000, 190715, 50835},
		{"lbm", 0, 0, core.SchedOldestFirst, 60361, 40000, 0, 0},
	}
	imgs := make([]*sim.Image, len(want))
	cfgs := make([]sim.Config, len(want))
	for i, tc := range want {
		imgs[i] = goldenImage(t, tc.workload, tc.sched)
		cfgs[i] = sim.DefaultConfig().WithSched(tc.sched)
		cfgs[i].Core.MaxInsts = tc.insts
	}
	m, err := sim.RunMultiContext(context.Background(), imgs, cfgs)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	for i, tc := range want {
		r := m.Cores[i]
		got := goldenCase{tc.workload, 0, 0, tc.sched, r.Cycles, r.Insts, r.QueueJumpSum, r.IssuedCritical}
		if got != tc {
			t.Errorf("core %d: got %+v, want %+v", i, got, tc)
		}
	}
}
