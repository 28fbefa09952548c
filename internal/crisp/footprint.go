package crisp

import (
	"crisp/internal/program"
	"crisp/internal/trace"
)

// Footprint quantifies the code-size cost of the critical prefix
// (Section 5.7 / Figure 12): one byte per tagged static instruction, and
// the dynamic footprint weighted by execution frequency.
type Footprint struct {
	StaticBytesBase   int
	StaticBytesTagged int
	DynBytesBase      uint64
	DynBytesTagged    uint64
	CriticalStatic    int
	CriticalDynShare  float64 // fraction of dynamic instructions tagged
}

// StaticOverhead returns the relative static code-size increase.
func (f *Footprint) StaticOverhead() float64 {
	if f.StaticBytesBase == 0 {
		return 0
	}
	return float64(f.StaticBytesTagged-f.StaticBytesBase) / float64(f.StaticBytesBase)
}

// DynOverhead returns the relative dynamic code-footprint increase.
func (f *Footprint) DynOverhead() float64 {
	if f.DynBytesBase == 0 {
		return 0
	}
	return float64(f.DynBytesTagged-f.DynBytesBase) / float64(f.DynBytesBase)
}

// MeasureFootprint computes the Figure 12 metrics for tagging criticalPCs
// in prog, using the trace's execution counts as dynamic weights.
func MeasureFootprint(prog *program.Program, tr *trace.Trace, criticalPCs []int) Footprint {
	return measureFootprint(prog, tr.ExecCounts(prog.Len()), criticalPCs)
}

// measureFootprint is MeasureFootprint over per-PC execution counts.
func measureFootprint(prog *program.Program, counts []uint64, criticalPCs []int) Footprint {
	crit := make(map[int]bool, len(criticalPCs))
	for _, pc := range criticalPCs {
		crit[pc] = true
	}

	var f Footprint
	var critDyn, totalDyn uint64
	for pc := range prog.Insts {
		in := prog.Insts[pc] // copy
		in.Critical = false
		size := in.EncodedSize()
		f.StaticBytesBase += size
		f.DynBytesBase += counts[pc] * uint64(size)
		if crit[pc] {
			size++
			f.CriticalStatic++
			critDyn += counts[pc]
		}
		f.StaticBytesTagged += size
		f.DynBytesTagged += counts[pc] * uint64(size)
		totalDyn += counts[pc]
	}
	if totalDyn > 0 {
		f.CriticalDynShare = float64(critDyn) / float64(totalDyn)
	}
	return f
}
