// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation (Section 5) as testing.B benchmarks, one per
// experiment, plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark iteration runs the full experiment at a
// reduced (but representative) instruction budget and reports the headline
// metric via b.ReportMetric, so `go test -bench` output doubles as a
// results table.
package repro

import (
	"context"
	"fmt"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/harness"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// benchInsts is the per-run instruction budget for benchmarks. The
// experiments command defaults to a larger budget; results track closely.
const benchInsts = 200_000

func newLab() *harness.Lab { return harness.NewLab(benchInsts) }

// BenchmarkTable1_Config renders the simulated-system table.
func BenchmarkTable1_Config(b *testing.B) {
	l := newLab()
	for i := 0; i < b.N; i++ {
		if len(l.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1_UPCTimeline regenerates the Figure 1 microbenchmark UPC
// comparison and reports the CRISP-over-OOO mean-UPC gain.
func BenchmarkFig1_UPCTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := newLab()
		t := l.Figure1Skip(200, 60, 300).MustTable()
		if len(t.Rows) == 0 {
			b.Fatal("no UPC windows")
		}
	}
	reportFigureGain(b, "fig1")
}

// BenchmarkSec31_MotivatingKernel reproduces the Section 3.1 measurement.
func BenchmarkSec31_MotivatingKernel(b *testing.B) {
	var gainPct float64
	for i := 0; i < b.N; i++ {
		t := newLab().Section31().MustTable()
		gainPct = (t.Rows[1].Cells[0]/t.Rows[0].Cells[0] - 1) * 100
	}
	b.ReportMetric(gainPct, "ipc_gain_%")
}

// BenchmarkFig4_SliceSizes regenerates the average-load-slice-size figure.
func BenchmarkFig4_SliceSizes(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure4().MustTable()
		sum := 0.0
		for _, r := range t.Rows {
			sum += r.Cells[0]
		}
		mean = sum / float64(len(t.Rows))
	}
	b.ReportMetric(mean, "avg_slice_insts")
}

// BenchmarkFig7_CRISPvsIBDA regenerates the headline comparison and
// reports the CRISP and IBDA-1K geomean IPC gains.
func BenchmarkFig7_CRISPvsIBDA(b *testing.B) {
	var crispGeo, ibdaGeo float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure7().MustTable()
		crispGeo = t.GeoMeanGain(0)
		ibdaGeo = t.GeoMeanGain(1)
	}
	b.ReportMetric(crispGeo, "crisp_geomean_%")
	b.ReportMetric(ibdaGeo, "ibda1k_geomean_%")
}

// BenchmarkFig8_SliceKinds regenerates the load/branch/combined-slice
// comparison and reports the combined geomean.
func BenchmarkFig8_SliceKinds(b *testing.B) {
	var loadGeo, branchGeo, bothGeo float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure8().MustTable()
		loadGeo, branchGeo, bothGeo = t.GeoMeanGain(0), t.GeoMeanGain(1), t.GeoMeanGain(2)
	}
	b.ReportMetric(loadGeo, "load_only_%")
	b.ReportMetric(branchGeo, "branch_only_%")
	b.ReportMetric(bothGeo, "combined_%")
}

// BenchmarkFig9_WindowSensitivity regenerates the RS/ROB sweep and reports
// the geomean gain at the largest window.
func BenchmarkFig9_WindowSensitivity(b *testing.B) {
	var small, base, big float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure9().MustTable()
		small, base, big = t.GeoMeanGain(0), t.GeoMeanGain(1), t.GeoMeanGain(3)
	}
	b.ReportMetric(small, "64rs180rob_%")
	b.ReportMetric(base, "96rs224rob_%")
	b.ReportMetric(big, "192rs448rob_%")
}

// BenchmarkFig10_MissThreshold regenerates the threshold study.
func BenchmarkFig10_MissThreshold(b *testing.B) {
	var t5, t1, t02 float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure10().MustTable()
		t5, t1, t02 = t.GeoMeanGain(0), t.GeoMeanGain(1), t.GeoMeanGain(2)
	}
	b.ReportMetric(t5, "T5pct_%")
	b.ReportMetric(t1, "T1pct_%")
	b.ReportMetric(t02, "T0.2pct_%")
}

// BenchmarkFig11_CriticalCounts regenerates the unique-critical counts and
// reports the maximum (the paper highlights the 10k+ apps).
func BenchmarkFig11_CriticalCounts(b *testing.B) {
	var maxCrit float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure11().MustTable()
		maxCrit = 0
		for _, r := range t.Rows {
			if r.Cells[0] > maxCrit {
				maxCrit = r.Cells[0]
			}
		}
	}
	b.ReportMetric(maxCrit, "max_critical_pcs")
}

// BenchmarkFig12_PrefixOverhead regenerates the footprint-overhead figure
// and reports the mean dynamic overhead (paper: ~5.2% average).
func BenchmarkFig12_PrefixOverhead(b *testing.B) {
	var dyn, icache float64
	for i := 0; i < b.N; i++ {
		t := newLab().Figure12().MustTable()
		var sd, si float64
		for _, r := range t.Rows {
			sd += r.Cells[1]
			si += r.Cells[2]
		}
		dyn = sd / float64(len(t.Rows))
		icache = si / float64(len(t.Rows))
	}
	b.ReportMetric(dyn, "dyn_overhead_%")
	b.ReportMetric(icache, "icache_mpki_delta_%")
}

// reportFigureGain runs the pointer-chase pair once and reports the gain;
// helper for the Figure 1 bench.
func reportFigureGain(b *testing.B, _ string) {
	w := workload.ByName("pointerchase")
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = benchInsts
	pipe := sim.AnalyzeTrain(w.Build(workload.Train), w.Build(workload.Train), cfg, crisp.DefaultOptions())
	base := sim.Run(w.Build(workload.Ref), cfg.WithSched(core.SchedOldestFirst))
	cr := sim.Run(pipe.Tagged(w.Build(workload.Ref)), cfg.WithSched(core.SchedCRISP))
	b.ReportMetric((cr.IPC()/base.IPC()-1)*100, "upc_gain_%")
}

// ---------------------------------------------------------------
// Ablation benchmarks for the DESIGN.md design choices.
// ---------------------------------------------------------------

func runSched(b *testing.B, name string, sched core.SchedulerKind, tagged bool) float64 {
	b.Helper()
	w := workload.ByName(name)
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = benchInsts
	img := w.Build(workload.Ref)
	if tagged {
		pipe := sim.AnalyzeTrain(w.Build(workload.Train), w.Build(workload.Train), cfg, crisp.DefaultOptions())
		img = pipe.Tagged(img)
	}
	return sim.Run(img, cfg.WithSched(sched)).IPC()
}

// BenchmarkAblation_SchedulerPolicies compares random, age-ordered, and
// CRISP selection on the multi-chain chase (design decision 2).
func BenchmarkAblation_SchedulerPolicies(b *testing.B) {
	var rnd, ooo, cr float64
	for i := 0; i < b.N; i++ {
		rnd = runSched(b, "mcf", core.SchedRandom, false)
		ooo = runSched(b, "mcf", core.SchedOldestFirst, false)
		cr = runSched(b, "mcf", core.SchedCRISP, true)
	}
	b.ReportMetric(rnd, "random_ipc")
	b.ReportMetric(ooo, "oldest_ipc")
	b.ReportMetric(cr, "crisp_ipc")
}

// BenchmarkAblation_CriticalPathFilter compares tagging whole slices
// against critical-path-filtered slices (design decision 4).
func BenchmarkAblation_CriticalPathFilter(b *testing.B) {
	l := newLab()
	l.Only = []string{"perlbench", "moses", "xalancbmk"}
	var filt, unfilt float64
	for i := 0; i < b.N; i++ {
		w := func(filter bool) float64 {
			opts := crisp.DefaultOptions()
			opts.FilterCriticalPath = filter
			prod := 1.0
			for _, name := range l.Only {
				wl := workload.ByName(name)
				base := l.Baseline(wl)
				cr := l.RunCRISP(wl, opts)
				prod *= cr.IPC() / base.IPC()
			}
			return (prod - 1) * 100
		}
		filt = w(true)
		unfilt = w(false)
	}
	b.ReportMetric(filt, "filtered_%")
	b.ReportMetric(unfilt, "unfiltered_%")
}

// BenchmarkAblation_MemoryDependencies compares the slicer with and
// without store-to-load dependency edges on namd, whose gather addresses
// pass through memory (design decision 3). Without memory dependencies the
// extracted slices lose the address chain, as register-only IBDA does.
func BenchmarkAblation_MemoryDependencies(b *testing.B) {
	var withMem, ibdaGain float64
	for i := 0; i < b.N; i++ {
		l := newLab()
		w := workload.ByName("namd")
		base := l.Baseline(w)
		cr := l.RunCRISP(w, crisp.DefaultOptions())
		ib := l.RunIBDA(w, 0, 0) // infinite IST, still register-only
		withMem = (cr.IPC()/base.IPC() - 1) * 100
		ibdaGain = (ib.IPC()/base.IPC() - 1) * 100
	}
	b.ReportMetric(withMem, "crisp_memdeps_%")
	b.ReportMetric(ibdaGain, "ibda_reg_only_%")
}

// BenchmarkAblation_PerfectBranchPrediction measures how much branch
// mispredictions cap CRISP's load-slice gains (the Section 5.3
// observation that motivated branch slices).
func BenchmarkAblation_PerfectBranchPrediction(b *testing.B) {
	var tage, perfect float64
	for i := 0; i < b.N; i++ {
		w := workload.ByName("lbm")
		cfg := sim.DefaultConfig()
		cfg.Core.MaxInsts = benchInsts
		opts := crisp.DefaultOptions()
		opts.BranchSlices = false
		pipe := sim.AnalyzeTrain(w.Build(workload.Train), w.Build(workload.Train), cfg, opts)

		base := sim.Run(w.Build(workload.Ref), cfg.WithSched(core.SchedOldestFirst))
		cr := sim.Run(pipe.Tagged(w.Build(workload.Ref)), cfg.WithSched(core.SchedCRISP))
		tage = (cr.IPC()/base.IPC() - 1) * 100

		pcfg := cfg
		pcfg.Core.PerfectBP = true
		pbase := sim.Run(w.Build(workload.Ref), pcfg.WithSched(core.SchedOldestFirst))
		pcr := sim.Run(pipe.Tagged(w.Build(workload.Ref)), pcfg.WithSched(core.SchedCRISP))
		perfect = (pcr.IPC()/pbase.IPC() - 1) * 100
	}
	b.ReportMetric(tage, "loadslices_tage_%")
	b.ReportMetric(perfect, "loadslices_perfectbp_%")
}

// BenchmarkCoreThroughput measures raw simulator speed (simulated
// instructions per second) on the mcf kernel.
func BenchmarkCoreThroughput(b *testing.B) {
	w := workload.ByName("mcf")
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = benchInsts
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res := sim.Run(w.Build(workload.Ref), cfg)
		insts += res.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim_insts/s")
}

// BenchmarkHostThroughput measures host-side simulator efficiency:
// simulated MIPS, host nanoseconds per simulated instruction, heap
// allocations per simulated instruction and the fraction of simulated
// cycles covered by next-event idle skipping, all from the Result's own
// host counters. pointerchase is the latency-bound acceptance workload of
// the earlier host-throughput work; mcf is the memory-bound mem_dram
// golden config the idle-skipping acceptance bar is measured on.
func BenchmarkHostThroughput(b *testing.B) {
	for _, name := range []string{"pointerchase", "mcf"} {
		b.Run(name, func(b *testing.B) {
			w := workload.ByName(name)
			cfg := sim.DefaultConfig()
			cfg.Core.MaxInsts = benchInsts
			b.ReportAllocs()
			b.ResetTimer()
			var insts, cycles, skipped, hostNS, hostAllocs uint64
			for i := 0; i < b.N; i++ {
				res := sim.Run(w.Build(workload.Ref), cfg)
				insts += res.Insts
				cycles += res.Cycles
				skipped += res.SkippedCycles
				hostNS += uint64(res.HostNS)
				hostAllocs += res.HostAllocs
			}
			b.ReportMetric(float64(insts)*1e3/float64(hostNS), "sim_MIPS")
			b.ReportMetric(float64(hostNS)/float64(insts), "host_ns/inst")
			b.ReportMetric(float64(hostAllocs)/float64(insts), "allocs/inst")
			b.ReportMetric(float64(skipped)/float64(cycles), "skipped_frac")
		})
	}
}

// BenchmarkHostThroughputMulti is BenchmarkHostThroughput for the
// multi-core driver (core.RunMulti): tailchase and streambatch alternating
// on 1, 2 and 4 cores over one shared LLC/DRAM under the stride
// prefetcher, benchInsts per core. sim_MIPS and host_ns/inst count every
// core's instructions against the co-run's wall time; cN_skipped_frac is
// the fraction of core N's cycles it slept through. A single-core run is
// the one-core co-run, so BenchmarkHostThroughput runs this same driver.
func BenchmarkHostThroughputMulti(b *testing.B) {
	names := []string{"tailchase", "streambatch", "tailchase", "streambatch"}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dcore", n), func(b *testing.B) {
			cfgs := make([]sim.Config, n)
			for i := range cfgs {
				cfgs[i] = sim.DefaultConfig()
				cfgs[i].Prefetcher = sim.PFStride
				cfgs[i].Core.MaxInsts = benchInsts
			}
			var insts, hostNS uint64
			cycles, skipped := make([]uint64, n), make([]uint64, n)
			for i := 0; i < b.N; i++ {
				imgs := make([]*sim.Image, n)
				for c := range imgs {
					imgs[c] = workload.ByName(names[c]).Build(workload.Ref)
				}
				m, err := sim.RunMultiContext(context.Background(), imgs, cfgs)
				if err != nil {
					b.Fatal(err)
				}
				hostNS += uint64(m.HostNS)
				for c, r := range m.Cores {
					insts += r.Insts
					cycles[c] += r.Cycles
					skipped[c] += r.SkippedCycles
				}
			}
			b.ReportMetric(float64(insts)*1e3/float64(hostNS), "sim_MIPS")
			b.ReportMetric(float64(hostNS)/float64(insts), "host_ns/inst")
			for c := range cycles {
				b.ReportMetric(float64(skipped[c])/float64(cycles[c]), fmt.Sprintf("c%d_skipped_frac", c))
			}
		})
	}
}

// BenchmarkExtension_DivSlices exercises the Section 6.1 extension:
// high-latency arithmetic (divides) as slice roots, measured on nab
// (FP/divide-heavy) with the extension on and off.
func BenchmarkExtension_DivSlices(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		l := newLab()
		w := workload.ByName("nab")
		base := l.Baseline(w)
		optsOff := crisp.DefaultOptions()
		optsOn := crisp.DefaultOptions()
		optsOn.HighLatencyALU = true
		off = (l.RunCRISP(w, optsOff).IPC()/base.IPC() - 1) * 100
		on = (l.RunCRISP(w, optsOn).IPC()/base.IPC() - 1) * 100
	}
	b.ReportMetric(off, "loads_branches_%")
	b.ReportMetric(on, "plus_div_slices_%")
}

// BenchmarkSensitivity_Prefetchers reproduces the Section 5.1 claim that
// CRISP's gain holds across baseline prefetcher choices.
func BenchmarkSensitivity_Prefetchers(b *testing.B) {
	var bop, stride, ghb float64
	for i := 0; i < b.N; i++ {
		l := newLab()
		l.Only = []string{"mcf", "xalancbmk", "namd"}
		t := l.PrefetcherSensitivity().MustTable()
		bop, stride, ghb = t.GeoMeanGain(0), t.GeoMeanGain(1), t.GeoMeanGain(2)
	}
	b.ReportMetric(bop, "over_bop_%")
	b.ReportMetric(stride, "over_stride_%")
	b.ReportMetric(ghb, "over_ghb_%")
}
