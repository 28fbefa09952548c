package crisp

// The slicer as it was while trace records carried the instruction, kept
// verbatim as the oracle of TestAnalyzeMatchesOracle: it indexes every
// record by static PC, and keeps its per-PC sets in maps. Only its field
// accesses changed, to read the instruction from the program and to widen
// the record's uint32 PC, and it slices RefTrace, the trace as stored
// while it kept one 16-byte record per instruction.

import (
	"sort"

	"crisp/internal/core"
	"crisp/internal/program"
	"crisp/internal/trace"
)

// RefTrace is a trace in its 16-byte form: every record with its links
// stored. Its methods are the trace's as they were in that form.
type RefTrace struct {
	Records []trace.Record
}

// Deps appends the producer indices of record i to dst and returns it.
func (t *RefTrace) Deps(i int, dst []uint32) []uint32 {
	r := &t.Records[i]
	if r.RegDep1 != trace.NoDep {
		dst = append(dst, r.RegDep1)
	}
	if r.RegDep2 != trace.NoDep && r.RegDep2 != r.RegDep1 {
		dst = append(dst, r.RegDep2)
	}
	if r.MemDep != trace.NoDep {
		dst = append(dst, r.MemDep)
	}
	return dst
}

// ExecCounts returns per-static-PC dynamic execution counts, indexed by PC
// up to progLen.
func (t *RefTrace) ExecCounts(progLen int) []uint64 {
	counts := make([]uint64, progLen)
	for i := range t.Records {
		counts[t.Records[i].PC]++
	}
	return counts
}

// RefMeasureFootprint is MeasureFootprint over a RefTrace's counts.
func RefMeasureFootprint(prog *program.Program, tr *RefTrace, criticalPCs []int) Footprint {
	return measureFootprint(prog, tr.ExecCounts(prog.Len()), criticalPCs)
}

// RefAnalyze is Analyze over refSlicer.
func RefAnalyze(prof *core.Result, tr *RefTrace, prog *program.Program, opts Options) *Analysis {
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

	sl := newRefSlicer(tr, prog)
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

// slicer extracts backward slices from a captured trace (Section 3.3's
// frontier algorithm). Dependencies through registers and through memory
// (store-to-load) are both followed — the latter is the capability
// register-only hardware IBDA lacks.
type refSlicer struct {
	tr   *RefTrace
	prog *program.Program
	// instancesOf caches trace indices per static PC.
	instances map[int][]uint32
}

func newRefSlicer(tr *RefTrace, prog *program.Program) *refSlicer {
	s := &refSlicer{tr: tr, prog: prog, instances: make(map[int][]uint32)}
	for i := range tr.Records {
		pc := int(tr.Records[i].PC)
		s.instances[pc] = append(s.instances[pc], uint32(i))
	}
	return s
}

// extract unions backward slices over up to maxInst dynamic instances of
// root. amat supplies per-PC load latencies for the DAG filter.
func (s *refSlicer) extract(root int, maxInst int, amat func(pc int) int, opts Options) sliceResult {
	inst := s.instances[root]
	if len(inst) == 0 {
		return sliceResult{}
	}
	// Use the last maxInst instances: state (caches, predictors, the
	// slice's own loop-carried structure) is warmed up by then.
	if len(inst) > maxInst {
		inst = inst[len(inst)-maxInst:]
	}

	fullSet := make(map[int]bool)
	filtSet := make(map[int]bool)
	var totalDyn int
	// Filter out uncommon code paths (Section 4.1): ancestors that
	// executed rarely relative to the root (one-time setup code) would
	// otherwise dominate the latency DAG with their cold-miss AMATs and
	// crowd the hot loop path out of the critical path.
	minExecs := len(s.instances[root]) / 20
	for _, rootIdx := range inst {
		nodes := s.backwardSlice(rootIdx)
		nodes = s.dropColdAncestors(nodes, rootIdx, minExecs)
		totalDyn += len(nodes)
		for _, n := range nodes {
			fullSet[int(s.tr.Records[n].PC)] = true
		}
		if opts.FilterCriticalPath {
			for _, n := range refCriticalNodes(s.tr, s.prog, nodes, amat, opts.CriticalPathSlack) {
				filtSet[int(s.tr.Records[n].PC)] = true
			}
		} else {
			for _, n := range nodes {
				filtSet[int(s.tr.Records[n].PC)] = true
			}
		}
	}

	res := sliceResult{
		Full:      refSetToSlice(fullSet),
		Filtered:  refSetToSlice(filtSet),
		AvgDynLen: float64(totalDyn) / float64(len(inst)),
		Instances: len(inst),
	}
	return res
}

// dropColdAncestors removes slice nodes whose static PC executed fewer
// than minExecs times in the trace (always keeping the root instance).
func (s *refSlicer) dropColdAncestors(nodes []uint32, rootIdx uint32, minExecs int) []uint32 {
	if minExecs <= 1 {
		return nodes
	}
	out := nodes[:0]
	for _, n := range nodes {
		if n == rootIdx || len(s.instances[int(s.tr.Records[n].PC)]) >= minExecs {
			out = append(out, n)
		}
	}
	return out
}

// backwardSlice walks producers from the root instance with the frontier
// algorithm and returns the visited trace indices (ascending). Expansion
// of an ancestor stops when its static PC is already in the slice (rule 1
// — this terminates loop-carried recursion as in Figure 3), when an
// operand has no producer in the trace window (rules 2 and 4), or at the
// window boundary.
func (s *refSlicer) backwardSlice(rootIdx uint32) []uint32 {
	inSlice := make(map[int]bool) // static PCs already in the slice
	visited := make(map[uint32]bool)
	frontier := []uint32{rootIdx}
	visited[rootIdx] = true
	inSlice[int(s.tr.Records[rootIdx].PC)] = true
	var order []uint32
	var depBuf []uint32

	for len(frontier) > 0 {
		idx := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, idx)

		depBuf = s.tr.Deps(int(idx), depBuf[:0])
		for _, dep := range depBuf {
			if visited[dep] {
				continue
			}
			pc := int(s.tr.Records[dep].PC)
			if inSlice[pc] {
				// Rule 1: ancestor's PC already in the load slice — record
				// the instance but do not expand further.
				visited[dep] = true
				order = append(order, dep)
				continue
			}
			inSlice[pc] = true
			visited[dep] = true
			frontier = append(frontier, dep)
		}
	}
	refSortU32(order)
	return order
}

// criticalNodes applies the Section 3.5 filter: treat the dynamic slice as
// a latency DAG, compute earliest/latest start times, and keep nodes whose
// slack is at most `slack` cycles.
func refCriticalNodes(tr *RefTrace, prog *program.Program, nodes []uint32, amat func(pc int) int, slack int) []uint32 {
	if len(nodes) <= 2 {
		return nodes
	}
	pos := make(map[uint32]int, len(nodes))
	for i, n := range nodes {
		pos[n] = i
	}
	lat := make([]int, len(nodes))
	for i, n := range nodes {
		r := &tr.Records[n]
		if prog.Insts[r.PC].Op.IsMem() && prog.Insts[r.PC].Op.Latency() == 4 {
			lat[i] = amat(int(r.PC))
		} else {
			lat[i] = prog.Insts[r.PC].Op.Latency()
		}
	}

	// Earliest start: nodes are ascending (trace order = topological).
	est := make([]int, len(nodes))
	var depBuf []uint32
	for i, n := range nodes {
		depBuf = tr.Deps(int(n), depBuf[:0])
		for _, d := range depBuf {
			if j, ok := pos[d]; ok {
				if t := est[j] + lat[j]; t > est[i] {
					est[i] = t
				}
			}
		}
	}
	root := len(nodes) - 1
	// Latest start, backwards from the root.
	lst := make([]int, len(nodes))
	const inf = int(^uint(0) >> 1)
	for i := range lst {
		lst[i] = inf
	}
	lst[root] = est[root]
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		depBuf = tr.Deps(int(n), depBuf[:0])
		for _, d := range depBuf {
			if j, ok := pos[d]; ok && lst[i] != inf {
				if t := lst[i] - lat[j]; t < lst[j] {
					lst[j] = t
				}
			}
		}
	}

	var out []uint32
	for i, n := range nodes {
		if lst[i] == inf {
			// Not on any path to the root (shouldn't happen; keep safe).
			continue
		}
		if lst[i]-est[i] <= slack {
			out = append(out, n)
		}
	}
	return out
}

func refSetToSlice(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for pc := range set {
		out = append(out, pc)
	}
	sort.Ints(out)
	return out
}

func refSortU32(a []uint32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}
