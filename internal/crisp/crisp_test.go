package crisp

import (
	"slices"
	"testing"

	"crisp/internal/core"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/trace"
)

// figure2Kernel mirrors the paper's motivating example: a linked-list
// traversal (with the pointer spilled through memory, as in the -O0 code
// of Figure 3) around a vector-multiply inner block.
func figure2Kernel(t *testing.T) (*program.Program, *emu.Memory, map[string]int) {
	t.Helper()
	mem := emu.NewMemory()
	// 64 nodes in a ring at 0x100000 + i*64.
	base := int64(0x100000)
	for i := 0; i < 64; i++ {
		next := base + int64((i+1)%64)*64
		mem.WriteWord(uint64(base+int64(i)*64), next)
		mem.WriteWord(uint64(base+int64(i)*64+8), int64(i))
	}
	for i := 0; i < 16; i++ {
		mem.WriteWord(uint64(0x200000+i*8), int64(i))
	}

	b := program.NewBuilder("fig2")
	sp := isa.R(30) // stack pointer
	cur := isa.R(1)
	val := isa.R(2)
	vb := isa.R(3)
	pcs := make(map[string]int)
	b.MovI(sp, 0x300000)
	b.MovI(vb, 0x200000)
	b.MovI(cur, base)
	b.Store(sp, 0, cur) // spill cur to the stack
	b.MovI(isa.R(9), 0)
	b.Label("outer")
	// Vector block: vec[i] *= val (loads forward-depend on nothing in the
	// pointer slice; the muls forward-depend on the critical load's value).
	for i := 0; i < 4; i++ {
		b.Load(isa.R(10+i), vb, int64(i*8))
		b.Mul(isa.R(10+i), isa.R(10+i), val)
		b.Store(vb, int64(i*8), isa.R(10+i))
	}
	pcs["reload"] = b.PC()
	b.Load(cur, sp, 0) // reload cur from the stack (dependency through memory)
	pcs["ptrload"] = b.PC()
	b.Load(cur, cur, 0) // cur = cur->next  (the delinquent load)
	pcs["valload"] = b.PC()
	b.Load(val, cur, 8) // val = cur->val
	pcs["spill"] = b.PC()
	b.Store(sp, 0, cur) // spill the new cur
	b.AddI(isa.R(9), isa.R(9), 1)
	b.MovI(isa.R(8), 40)
	pcs["loopbr"] = b.PC()
	b.Blt(isa.R(9), isa.R(8), "outer")
	b.Halt()
	return b.MustBuild(), mem, pcs
}

func captureFig2(t *testing.T) (*program.Program, *trace.Trace, map[string]int) {
	t.Helper()
	p, mem, pcs := figure2Kernel(t)
	tr := trace.Capture(emu.New(p, mem), 0)
	return p, tr, pcs
}

func TestSlicerFollowsMemoryDependencies(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
	opts := DefaultOptions()
	opts.FilterCriticalPath = false
	res := sl.extract(pcs["ptrload"], 4, func(int) int { return 100 }, opts)
	if res.Instances == 0 {
		t.Fatalf("no instances sliced")
	}
	want := []string{"reload", "ptrload", "spill"}
	got := make(map[int]bool)
	for _, pc := range res.Full {
		got[pc] = true
	}
	for _, name := range want {
		if !got[pcs[name]] {
			t.Errorf("slice missing %s (pc %d); slice = %v", name, pcs[name], res.Full)
		}
	}
	// The vector mul has only a FORWARD dependency on the slice: must be
	// excluded (the Figure 3 discussion).
	mulPC := pcs["reload"] - 11 // first Mul of the vector block
	if p.Insts[mulPC].Op != isa.OpMul {
		t.Fatalf("test bookkeeping: pc %d is %v, want mul", mulPC, p.Insts[mulPC].Op)
	}
	if got[mulPC] {
		t.Errorf("forward-dependent mul (pc %d) wrongly in slice", mulPC)
	}
}

func TestSlicerTerminatesOnLoopCarriedRecursion(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
	opts := DefaultOptions()
	opts.FilterCriticalPath = false
	res := sl.extract(pcs["ptrload"], 8, func(int) int { return 100 }, opts)
	// The slice must be bounded: loop-carried recursion terminates via
	// rule 1, so the static slice is a small fixed set, not the whole
	// program.
	if len(res.Full) >= p.Len() {
		t.Errorf("slice covers whole program (%d PCs)", len(res.Full))
	}
	if len(res.Full) > 10 {
		t.Errorf("slice suspiciously large: %d PCs: %v", len(res.Full), res.Full)
	}
}

func TestCriticalPathFilterDropsCheapSideChains(t *testing.T) {
	// root = add(slowChain, fastConst): the slow chain has a 100-cycle
	// load; the side chain is a single MovI. With slack 0-2 the MovI
	// survives only if on the critical path.
	b := program.NewBuilder("dag")
	b.MovI(isa.R(20), 0x1000) // addr base (leaf)
	b.Label("top")
	b.Load(isa.R(1), isa.R(20), 0)      // slow: amat 100
	b.AddI(isa.R(1), isa.R(1), 1)       // slow chain
	b.MovI(isa.R(2), 7)                 // cheap side value
	b.Add(isa.R(3), isa.R(1), isa.R(2)) // combine
	b.Load(isa.R(4), isa.R(3), 0)       // root load (address from r3)
	b.AddI(isa.R(20), isa.R(20), 64)
	b.MovI(isa.R(9), 1)
	b.Add(isa.R(10), isa.R(10), isa.R(9))
	b.MovI(isa.R(11), 20)
	b.Blt(isa.R(10), isa.R(11), "top")
	b.Halt()
	p := b.MustBuild()
	tr := trace.Capture(emu.New(p, emu.NewMemory()), 0)
	sl := newSlicer(tr, p, tr.ExecCounts(p.Len()))
	rootPC := 5 // the root load
	if p.Insts[rootPC].Op != isa.OpLoad {
		t.Fatalf("bookkeeping: pc %d is %v", rootPC, p.Insts[rootPC].Op)
	}
	opts := DefaultOptions()
	opts.CriticalPathSlack = 2
	res := sl.extract(rootPC, 4, func(int) int { return 100 }, opts)
	inFilt := make(map[int]bool)
	for _, pc := range res.Filtered {
		inFilt[pc] = true
	}
	if !inFilt[1] || !inFilt[2] { // slow load + slow add
		t.Errorf("critical chain missing from filtered slice %v", res.Filtered)
	}
	if inFilt[3] { // the cheap MovI side chain (slack ~100)
		t.Errorf("cheap side chain survived the filter: %v", res.Filtered)
	}
	if len(res.Filtered) >= len(res.Full) {
		t.Errorf("filter removed nothing: full %d filtered %d", len(res.Full), len(res.Filtered))
	}
}

func mkLoadProf(count, llcMiss uint64, mlpSum uint64) *core.LoadProf {
	return &core.LoadProf{
		Count: count, LLCMiss: llcMiss, L1Miss: llcMiss, MLPSum: mlpSum,
		TotalLat: count * 50, HeadStall: count * 60,
	}
}

func TestClassifyLoads(t *testing.T) {
	prof := &core.Result{Loads: map[int]*core.LoadProf{
		1: mkLoadProf(1000, 800, 800),   // hot delinquent, MLP 1: YES
		2: mkLoadProf(1000, 5, 5),       // tiny miss share: no
		3: mkLoadProf(100000, 900, 900), // miss ratio 0.9%: no (< 20%)
		4: mkLoadProf(1000, 700, 700*8), // MLP 8: no
	}}
	got := classifyLoads(prof, DefaultOptions())
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("classifyLoads = %v, want [1]", got)
	}
}

func TestClassifyLoadsThresholdKnob(t *testing.T) {
	prof := &core.Result{Loads: map[int]*core.LoadProf{
		1: mkLoadProf(1000, 960, 960),
		2: mkLoadProf(100, 30, 30),
		3: mkLoadProf(50, 10, 10),
	}}
	opts := DefaultOptions()
	opts.MissShareThreshold = 0.05 // T=5%: only load 1 (96%) qualifies
	if got := classifyLoads(prof, opts); len(got) != 1 {
		t.Errorf("T=5%%: %v", got)
	}
	opts.MissShareThreshold = 0.002 // T=0.2%: all three
	if got := classifyLoads(prof, opts); len(got) != 3 {
		t.Errorf("T=0.2%%: %v", got)
	}
}

func TestClassifyBranches(t *testing.T) {
	prof := &core.Result{Branches: map[int]*core.BranchProf{
		1: {Count: 1000, Mispred: 400}, // 40%: yes
		2: {Count: 1000, Mispred: 50},  // 5%: no
		3: {Count: 2, Mispred: 2},      // rare: no (share)
	}}
	got := classifyBranches(prof, DefaultOptions())
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("classifyBranches = %v, want [1]", got)
	}
}

// TestClassifyBreaksTiesByPC: roots with equal miss / mispredict / execution
// counts come out in PC order, the same on every call, not in the order Go's
// map iteration happened to yield them (ROADMAP 1b: before PR 28 the sort
// key was the count alone, and ten tied loads took a new order most calls).
func TestClassifyBreaksTiesByPC(t *testing.T) {
	prof := &core.Result{Loads: map[int]*core.LoadProf{}, Branches: map[int]*core.BranchProf{}}
	for pc := 10; pc < 20; pc++ {
		prof.Loads[pc] = mkLoadProf(1000, 500, 500)
		prof.Branches[pc] = &core.BranchProf{Count: 1000, Mispred: 300}
	}
	prof.Loads[5] = mkLoadProf(1000, 400, 400)
	prof.Loads[30] = mkLoadProf(1000, 900, 900)
	prof.Branches[5] = &core.BranchProf{Count: 1000, Mispred: 200}
	prof.Branches[30] = &core.BranchProf{Count: 1000, Mispred: 900}
	want := []int{30, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 5}
	for try := 0; try < 50; try++ {
		if got := classifyLoads(prof, DefaultOptions()); !slices.Equal(got, want) {
			t.Fatalf("try %d: DelinquentLoads = %v, want %v", try, got, want)
		}
		if got := classifyBranches(prof, DefaultOptions()); !slices.Equal(got, want) {
			t.Fatalf("try %d: HardBranches = %v, want %v", try, got, want)
		}
	}

	b := program.NewBuilder("divs")
	for i := 0; i < 6; i++ {
		b.Div(isa.R(1), isa.R(2), isa.R(3))
	}
	b.Halt()
	prog := b.MustBuild()
	counts := []uint64{7, 9, 7, 7, 9, 7, 1}
	if got, want := classifySlowALUs(prog, counts, 47, DefaultOptions()), []int{1, 4, 0, 2, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("SlowALUs = %v, want %v", got, want)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	// Fabricate the profile the timing run would produce: the pointer load
	// is delinquent.
	prof := &core.Result{
		Loads: map[int]*core.LoadProf{
			pcs["ptrload"]: mkLoadProf(40, 36, 40),
			pcs["valload"]: mkLoadProf(40, 2, 2),
		},
		Branches: map[int]*core.BranchProf{
			pcs["loopbr"]: {Count: 40, Mispred: 1},
		},
	}
	a := Analyze(prof, tr, p, DefaultOptions())
	if len(a.DelinquentLoads) != 1 || a.DelinquentLoads[0] != pcs["ptrload"] {
		t.Fatalf("delinquent loads = %v, want [%d]", a.DelinquentLoads, pcs["ptrload"])
	}
	if len(a.CriticalPCs) == 0 {
		t.Fatalf("no critical PCs")
	}
	found := false
	for _, pc := range a.CriticalPCs {
		if pc == pcs["ptrload"] {
			found = true
		}
		if pc < 0 || pc >= p.Len() {
			t.Errorf("critical pc %d out of range", pc)
		}
	}
	if !found {
		t.Errorf("root load not tagged: %v", a.CriticalPCs)
	}
	if a.DynCriticalFraction <= 0 || a.DynCriticalFraction > DefaultOptions().MaxCriticalFraction+1e-9 {
		t.Errorf("dynamic critical fraction = %v", a.DynCriticalFraction)
	}
	if a.AvgLoadSliceDynLen <= 0 {
		t.Errorf("no Figure 4 slice-size statistic")
	}
	// Applying must tag exactly the critical PCs.
	tagged := a.Apply(p)
	if got := tagged.CriticalPCs(); len(got) != len(a.CriticalPCs) {
		t.Errorf("Apply tagged %d PCs, want %d", len(got), len(a.CriticalPCs))
	}
	if len(p.CriticalPCs()) != 0 {
		t.Errorf("Apply mutated the original program")
	}
}

func TestGuardBandCapsDynamicFraction(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	prof := &core.Result{
		Loads: map[int]*core.LoadProf{
			pcs["ptrload"]: mkLoadProf(40, 36, 40),
			pcs["valload"]: mkLoadProf(40, 30, 30),
		},
		Branches: map[int]*core.BranchProf{},
	}
	loose := Analyze(prof, tr, p, DefaultOptions())

	opts := DefaultOptions()
	opts.MaxCriticalFraction = 0.05 // tighter than one slice: drop the colder one
	a := Analyze(prof, tr, p, opts)
	if len(a.CriticalPCs) == 0 {
		t.Fatalf("guard dropped everything; hottest slice should stay")
	}
	if len(a.LoadSlices) != 1 {
		t.Errorf("guard kept %d slices, want only the hottest", len(a.LoadSlices))
	}
	if _, ok := a.LoadSlices[pcs["ptrload"]]; !ok {
		t.Errorf("guard dropped the hottest slice")
	}
	if a.DynCriticalFraction >= loose.DynCriticalFraction {
		t.Errorf("guard did not reduce dynamic fraction: %v vs %v",
			a.DynCriticalFraction, loose.DynCriticalFraction)
	}
}

func TestBranchSliceExtraction(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	prof := &core.Result{
		Loads: map[int]*core.LoadProf{},
		Branches: map[int]*core.BranchProf{
			pcs["loopbr"]: {Count: 40, Mispred: 20},
		},
	}
	opts := DefaultOptions()
	opts.LoadSlices = false
	a := Analyze(prof, tr, p, opts)
	if len(a.HardBranches) != 1 {
		t.Fatalf("hard branches = %v", a.HardBranches)
	}
	if len(a.BranchSlices[pcs["loopbr"]]) == 0 {
		t.Fatalf("no branch slice extracted")
	}
	has := func(pc int) bool {
		for _, x := range a.BranchSlices[pcs["loopbr"]] {
			if x == pc {
				return true
			}
		}
		return false
	}
	if !has(pcs["loopbr"]) {
		t.Errorf("branch slice missing the branch itself")
	}
}

func TestSliceKindToggles(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	prof := &core.Result{
		Loads:    map[int]*core.LoadProf{pcs["ptrload"]: mkLoadProf(40, 36, 40)},
		Branches: map[int]*core.BranchProf{pcs["loopbr"]: {Count: 40, Mispred: 20}},
	}
	opts := DefaultOptions()
	opts.BranchSlices = false
	a := Analyze(prof, tr, p, opts)
	if len(a.BranchSlices) != 0 {
		t.Errorf("branch slices extracted despite toggle off")
	}
	opts = DefaultOptions()
	opts.LoadSlices = false
	a = Analyze(prof, tr, p, opts)
	if len(a.LoadSlices) != 0 {
		t.Errorf("load slices extracted despite toggle off")
	}
}

func TestFootprintAccounting(t *testing.T) {
	p, tr, pcs := captureFig2(t)
	f := MeasureFootprint(p, tr, []int{pcs["ptrload"], pcs["valload"]})
	if f.CriticalStatic != 2 {
		t.Errorf("critical static = %d", f.CriticalStatic)
	}
	if f.StaticBytesTagged != f.StaticBytesBase+2 {
		t.Errorf("static bytes %d -> %d, want +2", f.StaticBytesBase, f.StaticBytesTagged)
	}
	if f.DynOverhead() <= 0 || f.DynOverhead() > 0.5 {
		t.Errorf("dynamic overhead = %v", f.DynOverhead())
	}
	if f.StaticOverhead() <= 0 || f.StaticOverhead() > 0.1 {
		t.Errorf("static overhead = %v", f.StaticOverhead())
	}
	if f.CriticalDynShare <= 0 || f.CriticalDynShare > 1 {
		t.Errorf("critical dynamic share = %v", f.CriticalDynShare)
	}
}
