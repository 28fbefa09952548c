package sim

import (
	"context"
	"testing"

	"crisp/internal/metrics"
)

// TestMultiInterference pins that contention is actually modelled: two
// pointer chases whose combined working set overflows the shared LLC
// (while each alone fits) slow each other down measurably, every core's
// breakdown still partitions its cycles exactly, and the per-core
// attribution decomposes the shared totals with nothing missing. Alone,
// the chase is a one-core co-run, whose shared totals are its own share.
func TestMultiInterference(t *testing.T) {
	const nodes = 12000 // 750 KiB each: fits a 1 MiB LLC alone, not together
	one, err := RunMultiContext(context.Background(), []*Image{chaseImage(nodes, false)}, []Config{cfgN(40_000)})
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if one.LLC != one.LLCPerCore[0] || one.DRAM != one.DRAMPerCore[0] {
		t.Errorf("one core: shared totals LLC %+v DRAM %+v, its share LLC %+v DRAM %+v",
			one.LLC, one.DRAM, one.LLCPerCore[0], one.DRAMPerCore[0])
	}
	solo := one.Cores[0]
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
