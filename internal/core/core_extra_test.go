package core

import (
	"testing"

	"crisp/internal/branch"
	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
)

func TestCallRetThroughPipeline(t *testing.T) {
	b := program.NewBuilder("fn")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), 400)
	b.Label("loop")
	b.Call("work", isa.R(31))
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "loop")
	b.Halt()
	b.Label("work")
	b.AddI(isa.R(3), isa.R(3), 1)
	b.Ret(isa.R(31))
	res := runProg(t, DefaultConfig(), b.MustBuild(), nil, nil)
	// The RAS should predict the returns; mispredicts only at warmup.
	if res.BranchMispreds > 5 {
		t.Errorf("call/ret loop mispredicted %d times", res.BranchMispreds)
	}
	want := emu.New(b.MustBuild(), nil).Run(0)
	if res.Insts != want {
		t.Errorf("committed %d, want %d", res.Insts, want)
	}
}

// headMissLoop is a loop whose every iteration starts with a load that
// misses to DRAM (a new line 64 KiB past the last) and then runs body
// behind it, so that for a DRAM latency nothing behind the head retires.
func headMissLoop(name string, body func(b *program.Builder)) *program.Program {
	b := program.NewBuilder(name)
	b.MovI(isa.R(1), 0x10000)
	b.MovI(isa.R(2), 0)
	b.MovI(isa.R(3), 20)
	b.MovI(isa.R(4), 0x100000)
	b.Label("loop")
	b.Load(isa.R(5), isa.R(4), 0)
	body(b)
	b.AddI(isa.R(4), isa.R(4), 0x10000)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(3), "loop")
	b.Halt()
	return b.MustBuild()
}

// peakOccupancy steps a Table 1 core over p one cycle at a time, with no
// idle skip, and returns the most entries occ read after any cycle. It
// fails the test if occ ever exceeds limit.
func peakOccupancy(t *testing.T, p *program.Program, occ func(*Core) int, limit int) int {
	t.Helper()
	c := New(DefaultConfig(), p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)
	peak := 0
	for !c.finished() {
		c.stepCycle()
		n := occ(c)
		if n > limit {
			t.Fatalf("cycle %d: %d entries in a %d-entry queue", c.cycle, n, limit)
		}
		peak = max(peak, n)
		c.advanceCycle()
	}
	return peak
}

func TestStoreQueueCapacityStalls(t *testing.T) {
	// 150 stores behind a DRAM-missing load fill the store buffer, which
	// drains only at commit: occupancy reaches StoreQueue and stops there.
	p := headMissLoop("st", func(b *program.Builder) {
		for i := 0; i < 150; i++ {
			b.Store(isa.R(1), int64(i%8*8), isa.R(2))
		}
	})
	if peak := peakOccupancy(t, p, func(c *Core) int { return c.sqCount }, StoreQueue); peak != StoreQueue {
		t.Errorf("store buffer peaked at %d entries, want %d", peak, StoreQueue)
	}
}

func TestLoadQueueCapacityStalls(t *testing.T) {
	// 100 loads behind a DRAM-missing load fill the load buffer.
	p := headMissLoop("ld", func(b *program.Builder) {
		for i := 0; i < 100; i++ {
			b.Load(isa.R(8+i%4), isa.R(1), int64(i%8*8))
		}
	})
	if peak := peakOccupancy(t, p, func(c *Core) int { return c.lqCount }, LoadQueue); peak != LoadQueue {
		t.Errorf("load buffer peaked at %d entries, want %d", peak, LoadQueue)
	}
}

func TestMaxInstsBoundsRun(t *testing.T) {
	b := program.NewBuilder("inf")
	b.Label("l")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Jmp("l")
	cfg := DefaultConfig()
	cfg.MaxInsts = 5000
	res := runProg(t, cfg, b.MustBuild(), nil, nil)
	if res.Insts != 5000 {
		t.Errorf("insts = %d, want 5000", res.Insts)
	}
}

func TestColdCodePressuresICache(t *testing.T) {
	// A program with a huge straight-line body re-entered rarely has an
	// icache-bound phase; compare against a tight loop of the same
	// instruction count.
	big := program.NewBuilder("big")
	big.MovI(isa.R(1), 0)
	big.MovI(isa.R(2), 6)
	big.Label("loop")
	for i := 0; i < 12000; i++ {
		big.AddI(isa.R(8+i%8), isa.R(16+i%8), 1)
	}
	big.AddI(isa.R(1), isa.R(1), 1)
	big.Blt(isa.R(1), isa.R(2), "loop")
	big.Halt()
	res := runProg(t, DefaultConfig(), big.MustBuild(), nil, nil)
	if res.L1I.Misses == 0 {
		t.Errorf("60KB straight-line code produced no icache misses")
	}
	if res.L1IMPKI() <= 0 {
		t.Errorf("L1I MPKI = %v", res.L1IMPKI())
	}
}

func TestFDIPReducesICacheStalls(t *testing.T) {
	// A 10 KB loop body overflows no L1I but misses it cold: FDIP runs
	// ahead of fetch, so demand fetches hit lines it brought in.
	b := program.NewBuilder("fdip")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), 30)
	b.Label("loop")
	for i := 0; i < 2000; i++ {
		b.AddI(isa.R(8+i%8), isa.R(16+i%8), 1)
	}
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "loop")
	b.Halt()
	r := runProg(t, DefaultConfig(), b.MustBuild(), nil, nil)
	if r.L1I.Prefetches == 0 || r.L1I.PrefetchHits == 0 {
		t.Errorf("L1I prefetches %d, prefetch hits %d: FDIP did not run ahead of fetch",
			r.L1I.Prefetches, r.L1I.PrefetchHits)
	}
}

type alwaysMarker struct{ calls int }

func (m *alwaysMarker) MarkDispatch(pc int, isLoad bool, producers []int) bool {
	m.calls++
	return isLoad
}

func TestMarkerIntegration(t *testing.T) {
	b := program.NewBuilder("mk")
	b.MovI(isa.R(1), 0x20000)
	b.MovI(isa.R(2), 0)
	b.MovI(isa.R(3), 100)
	b.Label("loop")
	b.Load(isa.R(4), isa.R(1), 0)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(3), "loop")
	b.Halt()
	p := b.MustBuild()
	m := &alwaysMarker{}
	cfg := DefaultConfig()
	cfg.Scheduler = SchedCRISP
	em := emu.New(p, nil)
	c := New(cfg, p, em, cache.NewHierarchy(cache.DefaultHierConfig()), m)
	res := c.Run()
	if m.calls == 0 {
		t.Fatalf("marker never called")
	}
	if res.IssuedCritical == 0 {
		t.Errorf("marker-tagged loads never issued via PRIO")
	}
	if res.CriticalExecs == 0 {
		t.Errorf("no critical commits recorded")
	}
}

func TestBTBMissPenaltyApplied(t *testing.T) {
	// Many taken branches to distinct targets: with a 1-entry BTB nearly
	// every taken branch pays the decode redirect; with the default 8K BTB
	// they hit after warmup.
	mk := func() *program.Program {
		b := program.NewBuilder("btb")
		b.MovI(isa.R(1), 0)
		b.MovI(isa.R(2), 200)
		b.Label("loop")
		for i := 0; i < 16; i++ {
			b.Jmp("t" + string(rune('a'+i)))
			b.Label("t" + string(rune('a'+i)))
		}
		b.AddI(isa.R(1), isa.R(1), 1)
		b.Blt(isa.R(1), isa.R(2), "loop")
		b.Halt()
		return b.MustBuild()
	}
	p := mk()
	c := New(DefaultConfig(), p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)
	c.SetBranchState(nil, branch.NewBTB(4, 1), nil)
	rt := c.Run()
	rb := runProg(t, DefaultConfig(), mk(), nil, nil)
	if rt.BTBMisses <= rb.BTBMisses {
		t.Errorf("tiny BTB misses %d <= default %d", rt.BTBMisses, rb.BTBMisses)
	}
	if rt.Cycles <= rb.Cycles {
		t.Errorf("tiny BTB (%d cycles) not slower than default (%d)", rt.Cycles, rb.Cycles)
	}
}

func TestSquashFreeCommitStreamMatchesFunctional(t *testing.T) {
	// Whatever the schedulers do, the committed architectural work matches
	// the functional emulator: final register state must agree.
	p, mem, slots, slice := buildPointerChase(2000, 16)
	for _, sched := range []SchedulerKind{SchedOldestFirst, SchedCRISP, SchedRandom} {
		pp := p.Clone()
		if sched == SchedCRISP {
			pp.SetCritical(slice)
		}
		// Functional reference.
		ref := emu.New(pp, cloneMem(t, mem, pp, slots))
		ref.SetReg(isa.R(1), int64(slots[0]))
		ref.Run(30_000)
		refR2 := ref.Reg(isa.R(2))

		cfg := DefaultConfig()
		cfg.Scheduler = sched
		cfg.MaxInsts = 30_000
		em := emu.New(pp, cloneMem(t, mem, pp, slots))
		em.SetReg(isa.R(1), int64(slots[0]))
		c := New(cfg, pp, em, cache.NewHierarchy(cache.DefaultHierConfig()), nil)
		res := c.Run()
		if res.Insts != 30_000 {
			t.Fatalf("%v: committed %d", sched, res.Insts)
		}
		if got := em.Reg(isa.R(2)); got != refR2 {
			t.Errorf("%v: architectural r2 = %d, functional %d", sched, got, refR2)
		}
	}
}

// cloneMem rebuilds the pointer-chase memory image (Memory has no deep
// copy; reconstruct deterministically).
func cloneMem(t *testing.T, _ *emu.Memory, _ *program.Program, _ []uint64) *emu.Memory {
	t.Helper()
	_, mem, _, _ := buildPointerChase(2000, 16)
	return mem
}
