package crisp

import (
	"slices"

	"crisp/internal/program"
	"crisp/internal/trace"
)

// slicer extracts backward slices from a captured trace (Section 3.3's
// frontier algorithm). Dependencies through registers and through memory
// (store-to-load) are both followed — the latter is the capability
// register-only hardware IBDA lacks.
type slicer struct {
	tr   *trace.Trace
	prog *program.Program
	// counts is the trace's per-PC execution count (Trace.ExecCounts).
	counts []uint64
}

func newSlicer(tr *trace.Trace, prog *program.Program, counts []uint64) *slicer {
	return &slicer{tr: tr, prog: prog, counts: counts}
}

// sliceResult is the outcome of extract for one root PC.
type sliceResult struct {
	Full      []int   // unique static PCs in the unfiltered slice union
	Filtered  []int   // unique static PCs after critical-path filtering
	AvgDynLen float64 // mean dynamic slice size per instance (Figure 4)
	Instances int
}

// extract unions backward slices over up to maxInst dynamic instances of
// root. amat supplies per-PC load latencies for the DAG filter.
func (s *slicer) extract(root int, maxInst int, amat func(pc int) int, opts Options) sliceResult {
	if s.counts[root] == 0 {
		return sliceResult{}
	}
	// Use the last maxInst instances: state (caches, predictors, the
	// slice's own loop-carried structure) is warmed up by then.
	inst := s.tr.LastInstances(root, min(maxInst, int(s.counts[root])))

	fullSet := make([]bool, s.prog.Len())
	filtSet := make([]bool, s.prog.Len())
	var totalDyn int
	// Filter out uncommon code paths (Section 4.1): ancestors that
	// executed rarely relative to the root (one-time setup code) would
	// otherwise dominate the latency DAG with their cold-miss AMATs and
	// crowd the hot loop path out of the critical path.
	minExecs := s.counts[root] / 20
	for _, rootIdx := range inst {
		nodes := s.backwardSlice(rootIdx)
		nodes = s.dropColdAncestors(nodes, rootIdx, minExecs)
		totalDyn += len(nodes)
		for _, n := range nodes {
			fullSet[s.tr.PC(int(n))] = true
		}
		if opts.FilterCriticalPath {
			nodes = criticalNodes(s.tr, s.prog, nodes, amat, opts.CriticalPathSlack)
		}
		for _, n := range nodes {
			filtSet[s.tr.PC(int(n))] = true
		}
	}

	res := sliceResult{
		// Never nil: an empty slice is stored as [], not null.
		Full:      []int{},
		Filtered:  []int{},
		AvgDynLen: float64(totalDyn) / float64(len(inst)),
		Instances: len(inst),
	}
	for pc := range fullSet {
		if fullSet[pc] {
			res.Full = append(res.Full, pc)
		}
		if filtSet[pc] {
			res.Filtered = append(res.Filtered, pc)
		}
	}
	return res
}

// dropColdAncestors removes slice nodes whose static PC executed fewer
// than minExecs times in the trace (always keeping the root instance).
func (s *slicer) dropColdAncestors(nodes []uint32, rootIdx uint32, minExecs uint64) []uint32 {
	if minExecs <= 1 {
		return nodes
	}
	out := nodes[:0]
	for _, n := range nodes {
		if n == rootIdx || s.counts[s.tr.PC(int(n))] >= minExecs {
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
func (s *slicer) backwardSlice(rootIdx uint32) []uint32 {
	inSlice := make([]bool, s.prog.Len()) // static PCs already in the slice
	visited := make(map[uint32]bool)
	frontier := []uint32{rootIdx}
	visited[rootIdx] = true
	inSlice[s.tr.PC(int(rootIdx))] = true
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
			pc := s.tr.PC(int(dep))
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
	slices.Sort(order)
	return order
}

// criticalNodes applies the Section 3.5 filter: treat the dynamic slice as
// a latency DAG, compute earliest/latest start times, and keep nodes whose
// slack is at most `slack` cycles. nodes is ascending, so a producer's
// position is found by binary search.
func criticalNodes(tr *trace.Trace, prog *program.Program, nodes []uint32, amat func(pc int) int, slack int) []uint32 {
	if len(nodes) <= 2 {
		return nodes
	}
	lat := make([]int, len(nodes))
	for i, n := range nodes {
		pc := tr.PC(int(n))
		if op := prog.Insts[pc].Op; op.IsMem() && op.Latency() == 4 {
			lat[i] = amat(pc)
		} else {
			lat[i] = op.Latency()
		}
	}

	// Earliest start: nodes are ascending (trace order = topological).
	est := make([]int, len(nodes))
	var depBuf []uint32
	for i, n := range nodes {
		depBuf = tr.Deps(int(n), depBuf[:0])
		for _, d := range depBuf {
			if j, ok := slices.BinarySearch(nodes, d); ok {
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
			if j, ok := slices.BinarySearch(nodes, d); ok && lst[i] != inf {
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
