package harness

import (
	"context"
	"fmt"

	"crisp/internal/crisp"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// Figure1 reproduces the UPC-over-time microbenchmark comparison: µops
// retired per cycle in fixed windows for OOO and CRISP on the
// pointer-chase kernel. Columns: window index, OOO UPC, CRISP UPC.
func (l *Lab) Figure1(window int, windows int) *Pending {
	return l.Figure1Skip(window, windows, 0)
}

// Figure1Skip is Figure1 with the first `skip` windows (cache and
// predictor warmup) omitted.
func (l *Lab) Figure1Skip(window, windows, skip int) *Pending {
	baseSpec := l.refSpec("pointerchase")
	baseSpec.UPCWindow = window
	crSpec := baseSpec.WithCrisp(crisp.DefaultOptions())
	baseH := l.R.Submit(baseSpec)
	crH := l.R.Submit(crSpec)

	return &Pending{resolve: func(ctx context.Context) (*Table, error) {
		base, err := baseH.Result(ctx)
		if err != nil {
			return nil, err
		}
		cr, err := crH.Result(ctx)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 1: UPC per %d-cycle window, pointer-chase µbench", window),
			Columns: []string{"window", "ooo_upc", "crisp_upc"},
		}
		n := min(len(base.UPCWindows), len(cr.UPCWindows))
		if skip >= n {
			skip = 0
		}
		if windows > 0 && n > skip+windows {
			n = skip + windows
		}
		for i := skip; i < n; i++ {
			t.Rows = append(t.Rows, Row{
				Label: fmt.Sprintf("w%03d", i),
				Cells: []float64{base.UPCWindows[i], cr.UPCWindows[i]},
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("mean UPC: OOO %.3f CRISP %.3f (+%.1f%%)", base.IPC(), cr.IPC(), gain(cr, base)))
		return t, nil
	}}
}

// Figure4 reports the average dynamic load-slice size per application
// (pre-filter), extracted by the software slicer.
func (l *Lab) Figure4() *Pending {
	t := &Table{
		Title:   "Figure 4: average load slice size (dynamic instructions)",
		Columns: []string{"app", "avg_slice"},
	}
	opts := crisp.DefaultOptions()
	opts.FilterCriticalPath = false
	var rows []rowSource
	for _, name := range l.suite() {
		h := l.R.SubmitAnalysis(l.analysisSpec(name, opts))
		rows = append(rows, rowSource{name, func(ctx context.Context) ([]float64, error) {
			a, err := h.Result(ctx)
			if err != nil {
				return nil, err
			}
			return []float64{a.AvgLoadSliceDynLen}, nil
		}})
	}
	return pending(t, rows, nil)
}

// Figure7 compares CRISP and IBDA (1K/8K/64K/infinite IST) IPC gains over
// the OOO baseline, in percent.
func (l *Lab) Figure7() *Pending {
	t := &Table{
		Title:   "Figure 7: IPC improvement over OOO baseline (%)",
		Columns: []string{"app", "crisp", "ibda_1k", "ibda_8k", "ibda_64k", "ibda_inf"},
	}
	var rows []rowSource
	for _, name := range l.suite() {
		base := l.R.Submit(l.refSpec(name))
		runs := []*runner.RunHandle{
			l.R.Submit(l.crispSpec(name, crisp.DefaultOptions())),
			l.R.Submit(l.ibdaSpec(name, 1024, 4)),
			l.R.Submit(l.ibdaSpec(name, 8192, 8)),
			l.R.Submit(l.ibdaSpec(name, 65536, 16)),
			l.R.Submit(l.ibdaSpec(name, 0, 0)),
		}
		rows = append(rows, rowSource{name, gainCells(base, runs)})
	}
	return pending(t, rows, func(t *Table) {
		t.Notes = append(t.Notes,
			fmt.Sprintf("geomean: crisp %+.2f%%, ibda_1k %+.2f%%", t.GeoMeanGain(0), t.GeoMeanGain(1)))
	})
}

// gainCells resolves a row of IPC gains of runs over base, in percent.
func gainCells(base *runner.RunHandle, runs []*runner.RunHandle) func(ctx context.Context) ([]float64, error) {
	return func(ctx context.Context) ([]float64, error) {
		b, err := base.Result(ctx)
		if err != nil {
			return nil, err
		}
		cells := make([]float64, len(runs))
		for i, h := range runs {
			r, err := h.Result(ctx)
			if err != nil {
				return nil, err
			}
			cells[i] = gain(r, b)
		}
		return cells, nil
	}
}

// Figure8 isolates load slices, branch slices, and their combination.
func (l *Lab) Figure8() *Pending {
	t := &Table{
		Title:   "Figure 8: slice-kind contribution, IPC gain over OOO (%)",
		Columns: []string{"app", "load_only", "branch_only", "combined"},
	}
	lo := crisp.DefaultOptions()
	lo.BranchSlices = false
	bo := crisp.DefaultOptions()
	bo.LoadSlices = false
	both := crisp.DefaultOptions()
	var rows []rowSource
	for _, name := range l.suite() {
		base := l.R.Submit(l.refSpec(name))
		runs := []*runner.RunHandle{
			l.R.Submit(l.crispSpec(name, lo)),
			l.R.Submit(l.crispSpec(name, bo)),
			l.R.Submit(l.crispSpec(name, both)),
		}
		rows = append(rows, rowSource{name, gainCells(base, runs)})
	}
	return pending(t, rows, nil)
}

// windowConfigs are the Figure 9 RS/ROB sweep points (Skylake-like 96/224
// baseline, then +50% and +100%, plus the smaller 64/180 point).
var windowConfigs = []struct {
	Name    string
	RS, ROB int
}{
	{"64rs_180rob", 64, 180},
	{"96rs_224rob", 96, 224},
	{"144rs_336rob", 144, 336},
	{"192rs_448rob", 192, 448},
}

// Figure9 sweeps reservation-station and ROB sizes. The CRISP analysis
// is shared across window points (the software pipeline profiles on the
// default window, as in Section 5.4).
func (l *Lab) Figure9() *Pending {
	t := &Table{
		Title:   "Figure 9: CRISP IPC gain (%) vs RS/ROB size",
		Columns: []string{"app"},
	}
	for _, wc := range windowConfigs {
		t.Columns = append(t.Columns, wc.Name)
	}
	var rows []rowSource
	for _, name := range l.suite() {
		var bases, runs []*runner.RunHandle
		for _, wc := range windowConfigs {
			bs := l.refSpec(name)
			bs.RS, bs.ROB = wc.RS, wc.ROB
			bases = append(bases, l.R.Submit(bs))
			cs := l.crispSpec(name, crisp.DefaultOptions())
			cs.RS, cs.ROB = wc.RS, wc.ROB
			runs = append(runs, l.R.Submit(cs))
		}
		rows = append(rows, rowSource{name, pairedGainCells(bases, runs)})
	}
	return pending(t, rows, nil)
}

// pairedGainCells resolves a row where each cell has its own baseline.
func pairedGainCells(bases, runs []*runner.RunHandle) func(ctx context.Context) ([]float64, error) {
	return func(ctx context.Context) ([]float64, error) {
		cells := make([]float64, len(runs))
		for i := range runs {
			b, err := bases[i].Result(ctx)
			if err != nil {
				return nil, err
			}
			r, err := runs[i].Result(ctx)
			if err != nil {
				return nil, err
			}
			cells[i] = gain(r, b)
		}
		return cells, nil
	}
}

// Figure10 sweeps the miss-share criticality threshold T (Section 5.5).
func (l *Lab) Figure10() *Pending {
	ts := []float64{0.05, 0.01, 0.002}
	t := &Table{
		Title:   "Figure 10: CRISP IPC gain (%) vs miss-share threshold T",
		Columns: []string{"app", "T=5%", "T=1%", "T=0.2%"},
	}
	var rows []rowSource
	for _, name := range l.suite() {
		base := l.R.Submit(l.refSpec(name))
		var runs []*runner.RunHandle
		for _, thr := range ts {
			opts := crisp.DefaultOptions()
			opts.MissShareThreshold = thr
			runs = append(runs, l.R.Submit(l.crispSpec(name, opts)))
		}
		rows = append(rows, rowSource{name, gainCells(base, runs)})
	}
	return pending(t, rows, func(t *Table) {
		for i := range ts {
			t.Notes = append(t.Notes, fmt.Sprintf("geomean %s: %+.2f%%", t.Columns[i+1], t.GeoMeanGain(i)))
		}
	})
}

// Figure11 reports the number of unique critical (tagged) static
// instructions per application.
func (l *Lab) Figure11() *Pending {
	t := &Table{
		Title:   "Figure 11: unique critical instructions",
		Columns: []string{"app", "critical_pcs", "dyn_fraction"},
	}
	var rows []rowSource
	for _, name := range l.suite() {
		h := l.R.SubmitAnalysis(l.analysisSpec(name, crisp.DefaultOptions()))
		rows = append(rows, rowSource{name, func(ctx context.Context) ([]float64, error) {
			a, err := h.Result(ctx)
			if err != nil {
				return nil, err
			}
			return []float64{float64(len(a.CriticalPCs)), a.DynCriticalFraction}, nil
		}})
	}
	return pending(t, rows, nil)
}

// Figure12 reports the prefix footprint overheads: static and dynamic code
// size increase (%) and the instruction-cache MPKI delta (%) between
// untagged and tagged CRISP runs.
func (l *Lab) Figure12() *Pending {
	t := &Table{
		Title:   "Figure 12: critical-prefix footprint overhead",
		Columns: []string{"app", "static_pct", "dynamic_pct", "icache_mpki_pct"},
	}
	var rows []rowSource
	for _, name := range l.suite() {
		fpH := l.R.SubmitFootprint(l.analysisSpec(name, crisp.DefaultOptions()))
		baseH := l.R.Submit(l.refSpec(name))
		crH := l.R.Submit(l.crispSpec(name, crisp.DefaultOptions()))
		rows = append(rows, rowSource{name, func(ctx context.Context) ([]float64, error) {
			fp, err := fpH.Result(ctx)
			if err != nil {
				return nil, err
			}
			base, err := baseH.Result(ctx)
			if err != nil {
				return nil, err
			}
			cr, err := crH.Result(ctx)
			if err != nil {
				return nil, err
			}
			dMPKI := 0.0
			if base.L1IMPKI() > 0 {
				dMPKI = (cr.L1IMPKI()/base.L1IMPKI() - 1) * 100
			}
			return []float64{fp.StaticOverhead() * 100, fp.DynOverhead() * 100, dMPKI}, nil
		}})
	}
	return pending(t, rows, nil)
}

// Table1 renders the simulated system configuration.
func (l *Lab) Table1() string {
	c := l.Cfg
	return fmt.Sprintf(`== Table 1: simulated system ==
Frontend width / retirement    %d-way
Functional units               %d ALU, %d load, %d store
Branch predictor               TAGE
BTB                            %d entries, %d-way
ROB                            %d entries
Reservation station            %d entries (unified)
Baseline scheduler             %d-oldest-ready-instructions-first
Data prefetcher                %s
Instruction prefetcher         FDIP, FTQ %d entries
Load buffer                    %d entries
Store buffer                   %d entries
L1I                            %d KiB, %d-way, %d cycles
L1D                            %d KiB, %d-way, %d cycles
LLC                            %d KiB, %d-way, %d cycles
Memory                         DDR4-2400-like, 1 channel, %d banks
`,
		c.Core.FetchWidth,
		c.Core.Ports[0], c.Core.Ports[1], c.Core.Ports[2],
		c.Core.BTBEntries, c.Core.BTBWays,
		c.Core.ROBSize, c.Core.RSSize, c.Core.FetchWidth,
		c.Prefetcher, c.Core.FTQSize,
		c.Core.LoadQueue, c.Core.StoreQueue,
		c.Hier.L1I.SizeKiB, c.Hier.L1I.Ways, c.Hier.L1I.Latency,
		c.Hier.L1D.SizeKiB, c.Hier.L1D.Ways, c.Hier.L1D.Latency,
		c.Hier.LLC.SizeKiB, c.Hier.LLC.Ways, c.Hier.LLC.Latency,
		c.Hier.DRAM.Banks)
}

// Section31 reproduces the motivating measurement of Section 3.1: the
// pointer-chase kernel's IPC under the baseline against the same kernel
// with its critical slice hoisted (our CRISP run stands in for the manual
// prefetch insertion).
func (l *Lab) Section31() *Pending {
	baseH := l.R.Submit(l.refSpec("pointerchase"))
	crH := l.R.Submit(l.crispSpec("pointerchase", crisp.DefaultOptions()))
	return &Pending{resolve: func(ctx context.Context) (*Table, error) {
		base, err := baseH.Result(ctx)
		if err != nil {
			return nil, err
		}
		cr, err := crH.Result(ctx)
		if err != nil {
			return nil, err
		}
		return &Table{
			Title:   "Section 3.1: pointer-chase kernel, baseline vs hoisted slice",
			Columns: []string{"config", "ipc"},
			Rows: []Row{
				{Label: "baseline", Cells: []float64{base.IPC()}},
				{Label: "hoisted", Cells: []float64{cr.IPC()}},
			},
		}, nil
	}}
}

// PrefetcherSensitivity reproduces the Section 5.1 observation that
// CRISP's improvement is similar regardless of the baseline data
// prefetcher (the paper reports BOP, plain stride, and GHB baselines).
func (l *Lab) PrefetcherSensitivity() *Pending {
	kinds := []sim.PrefetcherKind{sim.PFBOPStream, sim.PFStride, sim.PFGHB, sim.PFNone}
	t := &Table{
		Title:   "Section 5.1: CRISP IPC gain (%) vs baseline prefetcher",
		Columns: []string{"app", "bop+stream", "stride", "ghb", "none"},
	}
	var rows []rowSource
	for _, name := range l.suite() {
		var bases, runs []*runner.RunHandle
		for _, k := range kinds {
			bs := l.refSpec(name)
			bs.Prefetcher = k
			bases = append(bases, l.R.Submit(bs))
			cs := l.crispSpec(name, crisp.DefaultOptions())
			cs.Prefetcher = k
			runs = append(runs, l.R.Submit(cs))
		}
		rows = append(rows, rowSource{name, pairedGainCells(bases, runs)})
	}
	return pending(t, rows, nil)
}
