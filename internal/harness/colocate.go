package harness

import (
	"context"
	"fmt"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/metrics"
	"crisp/internal/sim"
)

// Colocate renders the multi-core co-location figure: a latency-critical
// pointer-chasing service loop (tailchase, core 0) run solo and next to
// a bandwidth-hogging batch streamer (streambatch, core 1) over one
// shared LLC and DRAM, under both the OOO baseline and CRISP scheduling
// on the LC core. The columns answer the experiment's question — how
// much the neighbour costs the LC core (IPC, DRAM-stall slots, LLC
// misses, observed DRAM latency) and whether CRISP's reordering on core
// 0 helps or hurts core 1 (batch IPC, batch share of DRAM bandwidth).
// Every resolved core self-checks the attribution invariant (breakdown
// partitions Cycles × CommitWidth exactly), failing the figure on drift.
func (l *Lab) Colocate() *Pending {
	t, rows := l.colocateRows("Co-location",
		func(spec sim.RunSpec) sim.RunSpec { return spec },
		func(lc, batch sim.RunSpec) sim.MultiSpec { return sim.MultiSpec{Cores: []sim.RunSpec{lc, batch}} },
		func(*sim.MultiResult) {})
	return pending(t, rows, func(t *Table) {
		soloOOO, coOOO, coCRISP := t.Rows[0], t.Rows[2], t.Rows[3]
		t.Notes = append(t.Notes,
			fmt.Sprintf("batch neighbour costs the LC core %.1f%% IPC under ooo (%.3f -> %.3f)",
				(1-coOOO.Cells[0]/soloOOO.Cells[0])*100, soloOOO.Cells[0], coOOO.Cells[0]),
			fmt.Sprintf("CRISP on core 0 under co-location: LC IPC %.3f -> %.3f (%+.1f%%), batch IPC %.3f -> %.3f (%+.1f%%)",
				coOOO.Cells[0], coCRISP.Cells[0], (coCRISP.Cells[0]/coOOO.Cells[0]-1)*100,
				coOOO.Cells[1], coCRISP.Cells[1], (coCRISP.Cells[1]/coOOO.Cells[1]-1)*100))
	})
}

// colocateRows submits the four rows both co-location figures are made
// of — the LC core solo and beside the batch core, each under ooo and
// CRISP on the LC core — and returns them with their table. solo and co
// turn full-detail clauses into the spec a row runs; every resolved
// co-run is also handed to seen.
func (l *Lab) colocateRows(title string, solo func(sim.RunSpec) sim.RunSpec, co func(lc, batch sim.RunSpec) sim.MultiSpec,
	seen func(*sim.MultiResult)) (*Table, []rowSource) {
	t := &Table{
		Title: title + ": tailchase (LC, core 0) + streambatch (batch, core 1), shared LLC/DRAM",
		Columns: []string{"mix/sched", "lc_ipc", "batch_ipc", "lc_dram_slt%", "lc_llc_mpki",
			"batch_bw_shr", "lc_dram_lat"},
	}
	width := l.Cfg.Core.CommitWidth
	const lc, batch = "tailchase", "streambatch"
	opts := crisp.DefaultOptions()

	// cells carries one row's measurements to the column order in one
	// place: the LC core's, and on co-run rows the batch core's.
	cells := func(lcr, br *core.Result, batchBWShare float64) []float64 {
		slots := float64(lcr.Cycles) * float64(width)
		var batchIPC float64
		if br != nil {
			batchIPC = br.IPC()
		}
		return []float64{lcr.IPC(), batchIPC, float64(lcr.Breakdown.Stalls[metrics.MemDRAM]) / slots * 100,
			lcr.LLCMPKI(), batchBWShare, lcr.DRAMAvgLat}
	}
	soloRow := func(label string, spec sim.RunSpec) rowSource {
		h := l.R.Submit(spec)
		return rowSource{label, func(ctx context.Context) ([]float64, error) {
			r, err := h.Result(ctx)
			if err != nil {
				return nil, err
			}
			if err := metrics.CheckPartition(&r.Breakdown, r.Cycles, width); err != nil {
				return nil, err
			}
			return cells(r, nil, 0), nil
		}}
	}
	coRow := func(label string, spec sim.MultiSpec) rowSource {
		h := l.R.SubmitMulti(spec)
		return rowSource{label, func(ctx context.Context) ([]float64, error) {
			m, err := h.Result(ctx)
			if err != nil {
				return nil, err
			}
			for i, r := range m.Cores {
				if err := metrics.CheckPartition(&r.Breakdown, r.Cycles, width); err != nil {
					return nil, fmt.Errorf("core %d: %w", i, err)
				}
			}
			seen(m)
			bw := m.DRAMBandwidthShare()
			return cells(m.Cores[0], m.Cores[1], bw.Share(1)), nil
		}}
	}
	return t, []rowSource{
		soloRow("lc_solo/ooo", solo(l.refSpec(lc))),
		soloRow("lc_solo/crisp", solo(l.crispSpec(lc, opts))),
		coRow("lc+batch/ooo", co(l.refSpec(lc), l.refSpec(batch))),
		coRow("lc+batch/crisp", co(l.crispSpec(lc, opts), l.refSpec(batch))),
	}
}

// ColocateSampled renders the co-location figure through the sampled
// path: the same four rows as Colocate, but every run fast-forwards
// under functional warming and simulates short detailed windows — solo
// rows from single-core checkpoint sets, co-run rows from co-scheduled
// multi-core sets whose shared LLC was warmed by interleaving both
// cores' streams. One multi-core capture serves both scheduler rows
// (tags don't change functional behaviour), so this is the fast way to
// sweep co-location configs. The attribution self-check still holds
// per core: merged window breakdowns partition Cycles x CommitWidth
// exactly, which pins each core's bulk-charged sleeps inside windows too.
func (l *Lab) ColocateSampled() *Pending {
	s := sim.AutoSampling(l.Insts)
	// sampledClause converts a full-detail spec into a window clause: the
	// budget moves to the sampling schedule (spec level for multis).
	sampledClause := func(spec sim.RunSpec) sim.RunSpec {
		spec.Insts = 0
		return spec
	}
	var multis []*sim.MultiResult
	t, rows := l.colocateRows("Co-location (sampled)",
		func(spec sim.RunSpec) sim.RunSpec {
			spec = sampledClause(spec)
			spec.Sampling = &s
			return spec
		},
		func(lc, batch sim.RunSpec) sim.MultiSpec {
			return sim.MultiSpec{Sampling: &s, Cores: []sim.RunSpec{sampledClause(lc), sampledClause(batch)}}
		},
		func(m *sim.MultiResult) { multis = append(multis, m) })
	return pending(t, rows, func(t *Table) {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"schedule: %d co-scheduled windows x %d insts detailed per core, %d-inst budget; one multi-core capture serves both scheduler rows",
			s.Count, s.Window, s.Total()))
		if l.HostNotes {
			var detNS, ffNS int64
			var windows int
			for _, m := range multis {
				detNS += m.HostNS
				ffNS += m.HostFFNS
				windows = m.SampledWindows
			}
			if detNS > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"host time (co-runs): %.2fs detailed windows + %.2fs capture, %d windows each; the capture amortises across the sweep",
					float64(detNS)/1e9, float64(ffNS)/1e9, windows))
			}
		}
	})
}
