package crisp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/trace"
)

// RandomKernel builds a random but well-formed kernel that loops iters
// times: a mix of ALU ops, loads, and stores over a small memory region,
// ending with a loop branch. Returns the program and the PC of a load to
// slice.
func RandomKernel(seed int64, iters int64) (*program.Program, *emu.Memory, int) {
	r := rand.New(rand.NewSource(seed))
	b := program.NewBuilder("rand")
	mem := emu.NewMemory()
	for i := 0; i < 64; i++ {
		mem.WriteWord(uint64(0x10000+i*8), int64(r.Intn(1<<16)))
	}
	b.MovI(isa.R(1), 0x10000)
	b.MovI(isa.R(2), 0)
	b.MovI(isa.R(3), iters)
	b.Label("loop")
	loadPCs := []int{}
	n := 5 + r.Intn(15)
	for i := 0; i < n; i++ {
		dst := isa.R(8 + r.Intn(8))
		s1 := isa.R(8 + r.Intn(8))
		s2 := isa.R(8 + r.Intn(8))
		switch r.Intn(5) {
		case 0:
			loadPCs = append(loadPCs, b.PC())
			b.Load(dst, isa.R(1), int64(r.Intn(60)*8))
		case 1:
			b.Store(isa.R(1), int64(r.Intn(60)*8), s1)
		case 2:
			b.Add(dst, s1, s2)
		case 3:
			b.Mul(dst, s1, s2)
		default:
			b.Xor(dst, s1, s2)
		}
	}
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(3), "loop")
	b.Halt()
	p := b.MustBuild()
	root := -1
	if len(loadPCs) > 0 {
		root = loadPCs[r.Intn(len(loadPCs))]
	}
	return p, mem, root
}

// TestSlicerClosureProperty: for random kernels, the extracted full slice
// contains the root and is closed under static dependencies — every
// producer (register or memory) of every dynamic slice member has its
// static PC inside the slice.
func TestSlicerClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, mem, root := RandomKernel(seed, 40)
		if root < 0 {
			return true
		}
		tr := trace.Capture(emu.New(p, mem), 0)
		sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
		opts := DefaultOptions()
		opts.FilterCriticalPath = false
		res := sl.extract(root, 6, func(int) int { return 50 }, opts)
		if res.Instances == 0 {
			return true
		}
		inSlice := make(map[int]bool)
		for _, pc := range res.Full {
			inSlice[pc] = true
		}
		if !inSlice[root] {
			return false
		}
		// Closure: every producer of every slice member is in the slice,
		// unless it was dropped by the uncommon-code-path filter (executed
		// fewer than 1/20th as often as the root).
		rootExecs := sl.counts[root]
		cold := func(pc int) bool { return sl.counts[pc] < rootExecs/20 }
		var deps []uint32
		for i := range tr.Len() {
			if !inSlice[tr.PC(i)] {
				continue
			}
			deps = tr.Deps(i, deps[:0])
			for _, d := range deps {
				pc := tr.PC(int(d))
				if !inSlice[pc] && !cold(pc) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFilteredSubsetProperty: the critical-path-filtered slice is always a
// subset of the full slice and still contains the root.
func TestFilteredSubsetProperty(t *testing.T) {
	f := func(seed int64, slack uint8) bool {
		p, mem, root := RandomKernel(seed, 40)
		if root < 0 {
			return true
		}
		tr := trace.Capture(emu.New(p, mem), 0)
		sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
		opts := DefaultOptions()
		opts.CriticalPathSlack = int(slack % 16)
		res := sl.extract(root, 6, func(int) int { return 50 }, opts)
		if res.Instances == 0 {
			return true
		}
		full := make(map[int]bool)
		for _, pc := range res.Full {
			full[pc] = true
		}
		rootIn := false
		for _, pc := range res.Filtered {
			if !full[pc] {
				return false
			}
			if pc == root {
				rootIn = true
			}
		}
		return rootIn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSlackMonotoneProperty: growing the slack can only grow (or keep) the
// filtered slice.
func TestSlackMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		p, mem, root := RandomKernel(seed, 40)
		if root < 0 {
			return true
		}
		tr := trace.Capture(emu.New(p, mem), 0)
		sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
		prev := -1
		for _, slack := range []int{0, 2, 8, 1 << 20} {
			opts := DefaultOptions()
			opts.CriticalPathSlack = slack
			res := sl.extract(root, 6, func(int) int { return 50 }, opts)
			if len(res.Filtered) < prev {
				return false
			}
			prev = len(res.Filtered)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInfiniteSlackEqualsFull: with unbounded slack the filter must keep
// the whole slice.
func TestInfiniteSlackEqualsFull(t *testing.T) {
	p, mem, root := RandomKernel(12345, 40)
	if root < 0 {
		t.Skip("no loads in kernel")
	}
	tr := trace.Capture(emu.New(p, mem), 0)
	sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
	opts := DefaultOptions()
	opts.CriticalPathSlack = 1 << 30
	res := sl.extract(root, 6, func(int) int { return 50 }, opts)
	if len(res.Filtered) != len(res.Full) {
		t.Errorf("infinite slack filtered %d of %d", len(res.Filtered), len(res.Full))
	}
}
