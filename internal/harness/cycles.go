package harness

import (
	"fmt"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/metrics"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// CycleAccounting renders the top-down cycle accounting figure: for each
// workload, the baseline OOO and the CRISP run's commit slots split into
// retired work and the stall classes of internal/metrics, in percent.
// Memory-bound is split by serving level — mem_dram is the ROB-head
// DRAM-stall share CRISP exists to shrink — and the core-bound buckets
// (window/RS/LQ/SQ/port/dep/exec) are aggregated into one column. Each
// row self-checks the attribution invariant (buckets + retired slots sum
// to Cycles × CommitWidth) and fails the figure on any drift.
func (l *Lab) CycleAccounting() *Pending {
	t := &Table{
		Title:   "Cycle accounting: commit-slot breakdown (%)",
		Columns: []string{"app/sched", "retired", "frontend", "branch", "mem_l1", "mem_llc", "mem_dram", "core_bound"},
	}
	width := sim.DefaultConfig().Core.CommitWidth
	suite := l.suite()
	runs := make([]*core.Result, 2*len(suite)) // row i's run, for the HostNotes footnote
	// cells is row i's: it fails the figure unless the run's breakdown
	// partitions its commit slots exactly and its retired slots are its
	// µops, and keeps the run for the skip-efficiency footnote below (gated
	// like every host-side note, so the golden rendering is untouched).
	cells := func(i int) func([]*core.Result) ([]float64, error) {
		return func(rs []*core.Result) ([]float64, error) {
			r := rs[0]
			b := &r.Breakdown
			if err := metrics.CheckPartition(b, r.Cycles, width); err != nil {
				return nil, err
			}
			if b.Committed != r.Insts {
				return nil, fmt.Errorf("harness: cycle-accounting drift: %d committed slots vs %d retired µops", b.Committed, r.Insts)
			}
			runs[i] = r
			slots := float64(r.Cycles * uint64(width))
			pct := func(v uint64) float64 { return float64(v) / slots * 100 }
			return []float64{
				pct(b.Committed),
				pct(b.Stalls[metrics.Frontend]),
				pct(b.Stalls[metrics.BranchRedirect]),
				pct(b.Stalls[metrics.MemL1]),
				pct(b.Stalls[metrics.MemLLC]),
				pct(b.Stalls[metrics.MemDRAM]),
				pct(b.CoreBound()),
			}, nil
		}
	}
	var rows []rowSource
	for i, name := range suite {
		base := l.R.Submit(l.refSpec(name))
		cr := l.R.Submit(l.crispSpec(name, crisp.DefaultOptions()))
		rows = append(rows,
			row(name+"/ooo", []*runner.RunHandle{base}, cells(2*i)),
			row(name+"/crisp", []*runner.RunHandle{cr}, cells(2*i+1)))
	}
	return pending(t, rows, func(t *Table) {
		// Quote the headline effect per workload: the DRAM-bound share
		// under the baseline vs under CRISP (column 5, rows in ooo/crisp
		// pairs).
		const dramCol = 5
		for i := 0; i+1 < len(t.Rows); i += 2 {
			ooo, cr := t.Rows[i], t.Rows[i+1]
			t.Notes = append(t.Notes, fmt.Sprintf("%s mem_dram slots: ooo %.1f%% -> crisp %.1f%%",
				ooo.Label[:len(ooo.Label)-len("/ooo")], ooo.Cells[dramCol], cr.Cells[dramCol]))
		}
		var skipped, cycles uint64
		for _, r := range runs {
			skipped += r.SkippedCycles
			cycles += r.Cycles
		}
		if l.HostNotes && cycles > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"next-event idle skipping covered %.1f%% of the %d simulated cycles behind this figure (cycle-exact; see DebugNoSkip)",
				float64(skipped)/float64(cycles)*100, cycles))
		}
	})
}
