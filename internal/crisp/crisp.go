// Package crisp implements the paper's software pipeline: delinquent-load
// classification from profile data (Section 3.2), load-slice extraction
// from instruction traces with dependencies through registers AND memory
// (Section 3.3), branch-slice extraction for hard-to-predict branches
// (Section 3.4), DAG-based critical-path filtering (Section 3.5), and
// critical-instruction tagging with footprint accounting (Section 5.7).
//
// The pipeline consumes a profile (per-PC load and branch statistics from
// a profiling run — the PMU/PEBS stand-in) and a dynamic trace (the
// DynamoRIO/PT stand-in), and produces the set of static PCs to tag with
// the critical prefix.
package crisp

import (
	"sort"

	"crisp/internal/core"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/trace"
)

// Options are the classification and extraction knobs. The miss-share
// threshold T is the Figure 10 control variable.
type Options struct {
	// LoadSlices and BranchSlices select which slice kinds to extract
	// (Figure 8 toggles).
	LoadSlices   bool
	BranchSlices bool

	// MissShareThreshold T: a load is delinquent if it contributes more
	// than this fraction of the application's total LLC misses
	// (Section 5.5; default 0.01).
	MissShareThreshold float64
	// MissRatioThreshold: minimum per-load LLC miss ratio (Section 3.2's
	// 20% default).
	MissRatioThreshold float64
	// MaxMLP: loads observed with average MLP at or above this are not
	// latency-critical (Section 3.2's 5).
	MaxMLP float64
	// MinHeadStall: minimum average ROB-head stall cycles per execution —
	// Section 3.2's "pipeline stalls induced by the load". High-MLP
	// streaming loads whose latency overlaps their peers accrue little
	// head stall and are filtered out even when their MPKI is large.
	MinHeadStall float64
	// MinLoadShare: minimum fraction of all executed loads.
	MinLoadShare float64

	// MispredictThreshold: branches with a higher misprediction rate get
	// branch slices (Section 3.4's 15%).
	MispredictThreshold float64
	// MinBranchShare: minimum fraction of all executed branches.
	MinBranchShare float64

	// MaxSliceInstances bounds how many dynamic instances of each root are
	// sliced and unioned.
	MaxSliceInstances int
	// CriticalPathSlack keeps slice instructions whose slack in the
	// latency DAG is at most this many cycles (0 = strict critical path).
	CriticalPathSlack int
	// FilterCriticalPath disables the Section 3.5 filter when false
	// (IBDA-style whole-slice tagging, used for ablation).
	FilterCriticalPath bool

	// MaxCriticalFraction caps the dynamic fraction of tagged
	// instructions (Section 3.2's 40% guard); slices of colder roots are
	// dropped first.
	MaxCriticalFraction float64

	// HighLatencyALU enables the Section 6.1 extension: long-latency
	// arithmetic (integer and FP division) with a significant execution
	// share becomes a slice root too, so divides and their operand chains
	// execute as early as possible.
	HighLatencyALU bool
	// MinALUShare is the minimum dynamic execution share for a divide PC
	// to be considered (relative to all instructions).
	MinALUShare float64
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{
		LoadSlices:          true,
		BranchSlices:        true,
		MissShareThreshold:  0.01,
		MissRatioThreshold:  0.20,
		MaxMLP:              8,
		MinHeadStall:        2,
		MinLoadShare:        0.001,
		MispredictThreshold: 0.15,
		MinBranchShare:      0.001,
		MaxSliceInstances:   12,
		CriticalPathSlack:   2,
		FilterCriticalPath:  true,
		MaxCriticalFraction: 0.40,
		MinALUShare:         0.002,
	}
}

// SliceStats describes one extracted slice.
type SliceStats struct {
	RootPC     int
	IsBranch   bool
	FullStatic int     // unique PCs before critical-path filtering
	FiltStatic int     // unique PCs after filtering
	AvgDynLen  float64 // average dynamic slice length per instance (Figure 4)
	Instances  int
}

// Analysis is the pipeline output.
type Analysis struct {
	DelinquentLoads []int
	HardBranches    []int
	// SlowALUs are Section 6.1 high-latency arithmetic roots (divides).
	SlowALUs []int
	// LoadSlices / BranchSlices map root PC to the filtered static slice
	// (root included).
	LoadSlices   map[int][]int
	BranchSlices map[int][]int
	Slices       []SliceStats
	// CriticalPCs is the deduplicated union to tag.
	CriticalPCs []int
	// DynCriticalFraction is the fraction of dynamic instructions that are
	// tagged, per the trace's execution counts.
	DynCriticalFraction float64
	// AvgLoadSliceDynLen reproduces Figure 4's per-application statistic.
	AvgLoadSliceDynLen float64
}

// Analyze runs classification, slicing, filtering and the guard band.
func Analyze(prof *core.Result, tr *trace.Trace, prog *program.Program, opts Options) *Analysis {
	a := &Analysis{
		LoadSlices:   make(map[int][]int),
		BranchSlices: make(map[int][]int),
	}

	counts := tr.ExecCounts(prog.Len())
	var totalInsts uint64
	for _, c := range counts {
		totalInsts += c
	}

	amat := func(pc int) int {
		if lp, ok := prof.Loads[pc]; ok && lp.Count > 0 {
			if a := int(lp.AMAT()); a > 4 {
				return a
			}
		}
		return 4
	}

	if opts.LoadSlices {
		a.DelinquentLoads = classifyLoads(prof, opts)
	}
	if opts.BranchSlices {
		a.HardBranches = classifyBranches(prof, opts)
	}
	if opts.HighLatencyALU {
		a.SlowALUs = classifySlowALUs(prog, counts, totalInsts, opts)
	}

	sl := newSlicer(tr, prog)
	var totalDyn float64
	var nLoadSlices int
	for _, pc := range a.DelinquentLoads {
		res := sl.extract(pc, opts.MaxSliceInstances, amat, opts)
		if res.Instances == 0 {
			continue
		}
		a.LoadSlices[pc] = res.Filtered
		a.Slices = append(a.Slices, SliceStats{
			RootPC: pc, FullStatic: len(res.Full), FiltStatic: len(res.Filtered),
			AvgDynLen: res.AvgDynLen, Instances: res.Instances,
		})
		totalDyn += res.AvgDynLen
		nLoadSlices++
	}
	if nLoadSlices > 0 {
		a.AvgLoadSliceDynLen = totalDyn / float64(nLoadSlices)
	}
	for _, pc := range a.HardBranches {
		res := sl.extract(pc, opts.MaxSliceInstances, amat, opts)
		if res.Instances == 0 {
			continue
		}
		a.BranchSlices[pc] = res.Filtered
		a.Slices = append(a.Slices, SliceStats{
			RootPC: pc, IsBranch: true, FullStatic: len(res.Full),
			FiltStatic: len(res.Filtered), AvgDynLen: res.AvgDynLen,
			Instances: res.Instances,
		})
	}

	for _, pc := range a.SlowALUs {
		res := sl.extract(pc, opts.MaxSliceInstances, amat, opts)
		if res.Instances == 0 {
			continue
		}
		// Fold divide slices into the branch-slice map for guard/tagging
		// purposes; their hotness is their execution count.
		a.BranchSlices[pc] = res.Filtered
		a.Slices = append(a.Slices, SliceStats{
			RootPC: pc, FullStatic: len(res.Full), FiltStatic: len(res.Filtered),
			AvgDynLen: res.AvgDynLen, Instances: res.Instances,
		})
	}

	a.applyGuard(prof, counts, totalInsts, opts)
	return a
}

// classifySlowALUs finds division PCs with a significant execution share
// (the Section 6.1 extension). The PMU extension the paper envisions —
// "new events for determining the PC of arbitrary instructions that
// induce significant stall cycles" — is approximated by static opcode
// class plus dynamic execution share.
func classifySlowALUs(prog *program.Program, counts []uint64, totalInsts uint64, opts Options) []int {
	if totalInsts == 0 {
		return nil
	}
	var out []int
	for pc := range prog.Insts {
		switch prog.Insts[pc].Op {
		case isa.OpDiv, isa.OpRem, isa.OpFDiv:
			if float64(counts[pc])/float64(totalInsts) >= opts.MinALUShare {
				out = append(out, pc)
			}
		}
	}
	byCountThenPC(out, func(pc int) uint64 { return counts[pc] })
	return out
}

// byCountThenPC orders root PCs hottest first, and equally hot ones by PC:
// the candidates come out of a map, so a count alone would leave the order
// of a tie — and with it Slices and the sum behind AvgLoadSliceDynLen — to
// Go's map iteration.
func byCountThenPC(pcs []int, count func(pc int) uint64) {
	sort.Slice(pcs, func(i, j int) bool {
		if ci, cj := count(pcs[i]), count(pcs[j]); ci != cj {
			return ci > cj
		}
		return pcs[i] < pcs[j]
	})
}

// classifyLoads applies the Section 3.2 heuristics.
func classifyLoads(prof *core.Result, opts Options) []int {
	var totalLoads, totalMisses uint64
	for _, lp := range prof.Loads {
		totalLoads += lp.Count
		totalMisses += lp.LLCMiss
	}
	if totalLoads == 0 || totalMisses == 0 {
		return nil
	}
	var out []int
	for pc, lp := range prof.Loads {
		missShare := float64(lp.LLCMiss) / float64(totalMisses)
		loadShare := float64(lp.Count) / float64(totalLoads)
		if missShare <= opts.MissShareThreshold {
			continue
		}
		if lp.LLCMissRatio() < opts.MissRatioThreshold {
			continue
		}
		if loadShare < opts.MinLoadShare {
			continue
		}
		if opts.MaxMLP > 0 && lp.AvgMLP() >= opts.MaxMLP {
			continue
		}
		if opts.MinHeadStall > 0 && float64(lp.HeadStall)/float64(lp.Count) < opts.MinHeadStall {
			continue
		}
		out = append(out, pc)
	}
	byCountThenPC(out, func(pc int) uint64 { return prof.Loads[pc].LLCMiss })
	return out
}

// classifyBranches applies the Section 3.4 threshold.
func classifyBranches(prof *core.Result, opts Options) []int {
	var totalBranches uint64
	for _, bp := range prof.Branches {
		totalBranches += bp.Count
	}
	if totalBranches == 0 {
		return nil
	}
	var out []int
	for pc, bp := range prof.Branches {
		if bp.MispredictRate() <= opts.MispredictThreshold {
			continue
		}
		if float64(bp.Count)/float64(totalBranches) < opts.MinBranchShare {
			continue
		}
		out = append(out, pc)
	}
	byCountThenPC(out, func(pc int) uint64 { return prof.Branches[pc].Mispred })
	return out
}

// applyGuard enforces the 40% dynamic-fraction cap, dropping slices of the
// coldest roots first, then computes the final critical set.
func (a *Analysis) applyGuard(prof *core.Result, counts []uint64, totalInsts uint64, opts Options) {
	type cand struct {
		root     int
		isBranch bool
		slice    []int
		value    uint64 // hotness: LLC misses or mispredictions
	}
	var cands []cand
	for pc, s := range a.LoadSlices {
		v := uint64(0)
		if lp, ok := prof.Loads[pc]; ok {
			v = lp.LLCMiss
		}
		cands = append(cands, cand{root: pc, slice: s, value: v})
	}
	for pc, s := range a.BranchSlices {
		v := uint64(0)
		if bp, ok := prof.Branches[pc]; ok {
			v = bp.Mispred
		}
		cands = append(cands, cand{root: pc, isBranch: true, slice: s, value: v})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].value != cands[j].value {
			return cands[i].value > cands[j].value
		}
		return cands[i].root < cands[j].root
	})

	tagged := make(map[int]bool)
	var dyn uint64
	budget := uint64(float64(totalInsts) * opts.MaxCriticalFraction)
	if opts.MaxCriticalFraction <= 0 {
		budget = totalInsts
	}
	for _, c := range cands {
		var extra uint64
		for _, pc := range c.slice {
			if !tagged[pc] && pc < len(counts) {
				extra += counts[pc]
			}
		}
		if dyn+extra > budget && dyn > 0 {
			// Dropping this whole slice keeps us inside the guard band.
			if c.isBranch {
				delete(a.BranchSlices, c.root)
			} else {
				delete(a.LoadSlices, c.root)
			}
			continue
		}
		for _, pc := range c.slice {
			tagged[pc] = true
		}
		dyn += extra
	}

	a.CriticalPCs = a.CriticalPCs[:0]
	for pc := range tagged {
		a.CriticalPCs = append(a.CriticalPCs, pc)
	}
	sort.Ints(a.CriticalPCs)
	if totalInsts > 0 {
		a.DynCriticalFraction = float64(dyn) / float64(totalInsts)
	}
}

// Apply clones prog and tags the analysis's critical PCs (the post-link
// rewriting step of Figure 5).
func (a *Analysis) Apply(prog *program.Program) *program.Program {
	p := prog.Clone()
	p.SetCritical(a.CriticalPCs)
	return p
}
