package crisp_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crisp/internal/crisp"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// figureOptions are the option sets the figures analyse under: the
// defaults, Fig 4's unfiltered slices, Fig 8's load-only and branch-only
// slices, Fig 10's three miss-share thresholds, and the Section 6.1
// divide roots.
func figureOptions() map[string]crisp.Options {
	sets := map[string]crisp.Options{"default": crisp.DefaultOptions()}
	o := crisp.DefaultOptions()
	o.FilterCriticalPath = false
	sets["fig4"] = o
	o = crisp.DefaultOptions()
	o.BranchSlices = false
	sets["fig8-load"] = o
	o = crisp.DefaultOptions()
	o.LoadSlices = false
	sets["fig8-branch"] = o
	for _, thr := range []float64{0.05, 0.01, 0.002} {
		o = crisp.DefaultOptions()
		o.MissShareThreshold = thr
		sets[fmt.Sprintf("fig10-T%g", thr)] = o
	}
	o = crisp.DefaultOptions()
	o.HighLatencyALU = true
	sets["slow-alu"] = o
	return sets
}

var sinkAnalysis *crisp.Analysis

// BenchmarkAnalyze is the software pipeline past its profiling run: one
// op captures mcf's train input at 200k instructions and analyses the
// trace under every figure option set. B/inst is the heap the trace
// retains per instruction (after a collection, against one before the
// capture), ns/analysis one Analyze call, capture_ns the capture. It uses
// exported names only, so it runs in a parent tree too.
func BenchmarkAnalyze(b *testing.B) {
	const insts = 200_000
	w := workload.ByName("mcf")
	cfg, err := sim.RunSpec{Workload: w.Name, Input: sim.InputTrain, Insts: insts}.Config()
	if err != nil {
		b.Fatal(err)
	}
	prof := sim.Run(w.Build(workload.Train), cfg)
	sets := figureOptions()
	var capture, analyze time.Duration
	var bytesPerInst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		img := w.Build(workload.Train)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		t0 := time.Now()
		tr := sim.CaptureTrace(img, insts)
		capture += time.Since(t0)
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytesPerInst = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(tr.Len())
		b.StartTimer()
		t1 := time.Now()
		for _, opts := range sets {
			sinkAnalysis = crisp.Analyze(prof, tr, img.Prog, opts)
		}
		analyze += time.Since(t1)
	}
	b.ReportMetric(bytesPerInst, "B/inst")
	b.ReportMetric(float64(analyze.Nanoseconds())/float64(b.N*len(sets)), "ns/analysis")
	b.ReportMetric(float64(capture.Nanoseconds())/float64(b.N), "capture_ns")
}
