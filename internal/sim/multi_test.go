package sim

import (
	"context"
	"reflect"
	"testing"

	"crisp/internal/metrics"
)

// TestMultiSingleCoreEquivalence pins the refactor's no-regression bar:
// a 1-core multi-core run is the same machine as a single-core run —
// view 0 has base offset 0 and requester stats route to slot 0, so every
// architectural number must match exactly. Only host-side measurements
// (wall time, allocs) may differ.
func TestMultiSingleCoreEquivalence(t *testing.T) {
	single := Run(chaseImage(3000, false), cfgN(40_000))
	m, err := RunMultiContext(context.Background(), []*Image{chaseImage(3000, false)}, []Config{cfgN(40_000)})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	multi := m.Cores[0]
	single.HostNS, single.HostAllocs = 0, 0
	multi.HostNS, multi.HostAllocs = 0, 0
	if !reflect.DeepEqual(single, multi) {
		t.Errorf("1-core multi run diverged from single-core run:\n"+
			"  cycles    %d vs %d\n  insts     %d vs %d\n  breakdown %v vs %v\n"+
			"  llc       %+v vs %+v\n  dram      %d/%0.1f vs %d/%0.1f",
			multi.Cycles, single.Cycles, multi.Insts, single.Insts,
			multi.Breakdown, single.Breakdown, multi.LLC, single.LLC,
			multi.DRAMReads, multi.DRAMAvgLat, single.DRAMReads, single.DRAMAvgLat)
	}
	// The shared-level aggregates must agree with the one core's own view.
	if m.LLC != m.LLCPerCore[0] || m.DRAM != m.DRAMPerCore[0] {
		t.Errorf("aggregate/per-core shared stats disagree for n=1")
	}
}

// TestMultiInterference pins that contention is actually modelled: two
// pointer chases whose combined working set overflows the shared LLC
// (while each alone fits) slow each other down measurably, every core's
// breakdown still partitions its cycles exactly, and the per-core
// attribution decomposes the shared totals with nothing missing.
func TestMultiInterference(t *testing.T) {
	const nodes = 12000 // 750 KiB each: fits a 1 MiB LLC alone, not together
	solo := Run(chaseImage(nodes, false), cfgN(40_000))
	m, err := RunMultiContext(context.Background(),
		[]*Image{chaseImage(nodes, false), chaseImage(nodes, false)},
		[]Config{cfgN(40_000), cfgN(40_000)})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	width := DefaultConfig().Core.CommitWidth
	for i, r := range m.Cores {
		if err := metrics.CheckPartition(&r.Breakdown, r.Cycles, width); err != nil {
			t.Errorf("core %d: %v", i, err)
		}
		if r.IPC() >= solo.IPC()*0.95 {
			t.Errorf("core %d: co-run IPC %.3f not measurably below solo %.3f",
				i, r.IPC(), solo.IPC())
		}
	}
	llc, bw := m.LLCOccupancyShare(), m.DRAMBandwidthShare()
	if llc.Total() != m.LLC.Accesses {
		t.Errorf("LLC attribution total %d != shared accesses %d", llc.Total(), m.LLC.Accesses)
	}
	if want := m.DRAM.Reads + m.DRAM.Writes; bw.Total() != want {
		t.Errorf("DRAM attribution total %d != shared transfers %d", bw.Total(), want)
	}
	if s := llc.Share(0) + llc.Share(1); s < 0.999 || s > 1.001 {
		t.Errorf("LLC shares sum to %.4f, want 1", s)
	}
}
