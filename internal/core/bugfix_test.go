package core

import (
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/ibda"
	"crisp/internal/isa"
	"crisp/internal/program"
)

// A branch redirect must never shorten a fetch block already in force
// (e.g. an icache miss still filling): the later deadline wins.
func TestRedirectDoesNotShortenFetchBlock(t *testing.T) {
	b := program.NewBuilder("redirect")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), 2)
	b.Label("loop")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "loop")
	b.Halt()
	p := b.MustBuild()

	cfg := DefaultConfig()
	c := New(cfg, p, emu.New(p, nil), cache.NewHierarchy(cache.DefaultHierConfig()), nil)

	// An icache miss has blocked fetch until cycle 500; a mispredicted
	// branch now resolves at cycle ~0, whose redirect deadline
	// (doneAt + RedirectPenalty) is far earlier.
	const blocked = 500
	c.fetchBlockedUntil = blocked
	brPC := 3 // the Blt
	if p.Insts[brPC].Op != isa.OpBlt {
		t.Fatalf("pc %d is %v, want Blt", brPC, p.Insts[brPC].Op)
	}
	e := &entry{
		seq:          0,
		d:            emu.DynInst{PC: brPC, Inst: &p.Insts[brPC]},
		mispredicted: true,
		slot:         0,
		dep1:         -1, dep2: -1, storeDep: -1,
	}
	c.execute(e, e.d.Inst.Op.Class(), 0)

	redirect := e.doneAt + RedirectPenalty
	if redirect >= blocked {
		t.Fatalf("test setup: redirect deadline %d not earlier than block %d", redirect, blocked)
	}
	if c.fetchBlockedUntil != blocked {
		t.Errorf("fetchBlockedUntil = %d after early redirect, want %d (in-force block shortened)",
			c.fetchBlockedUntil, blocked)
	}
	if c.redirectUntil != redirect {
		t.Errorf("redirectUntil = %d, want %d", c.redirectUntil, redirect)
	}
}

// A store that only partially overlaps a younger load cannot supply all of
// the load's bytes, so the load must go to the cache, not forward.
func TestPartialOverlapStoreDoesNotForward(t *testing.T) {
	b := program.NewBuilder("partial")
	b.MovI(isa.R(1), 0x10000)
	b.MovI(isa.R(2), 99)
	b.Label("loop")
	b.Store(isa.R(1), 0, isa.R(2)) // 8 bytes at base
	b.Load(isa.R(3), isa.R(1), 4)  // 8 bytes at base+4: overlaps, not covered
	b.AddI(isa.R(4), isa.R(4), 1)
	b.MovI(isa.R(5), 200)
	b.Blt(isa.R(4), isa.R(5), "loop")
	b.Halt()
	res := runProg(t, DefaultConfig(), b.MustBuild(), nil, nil)
	loadPC := 3
	lp := res.Loads[loadPC]
	if lp == nil {
		t.Fatalf("no load profile for pc %d", loadPC)
	}
	if lp.Forwards != 0 {
		t.Errorf("forwards = %d of %d partially-overlapped loads, want 0", lp.Forwards, lp.Count)
	}
}

// The commit-time store-buffer drain must not carry the store's PC: store
// PCs reaching the LLC miss observer would pollute per-PC structures that
// must only ever hold loads, such as IBDA's delinquent load table.
func TestStoreDrainKeepsDelinquentTableEmpty(t *testing.T) {
	// A store-miss-heavy kernel with no loads at all: every store drains to
	// a fresh line, so every drain is an LLC miss.
	const iters = 2048
	b := program.NewBuilder("storestride")
	b.MovI(isa.R(1), 0x100000)
	b.MovI(isa.R(2), 0)
	b.MovI(isa.R(3), iters)
	b.Label("loop")
	b.Store(isa.R(1), 0, isa.R(2))
	b.AddI(isa.R(1), isa.R(1), 4096)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(3), "loop")
	b.Halt()
	p := b.MustBuild()

	ib := ibda.New(ibda.DefaultConfig())
	hier := cache.NewHierarchy(cache.DefaultHierConfig())
	hier.LLC.SetRequesterMissObserver(0, func(pc, lineAddr uint64) {
		ib.OnLLCMiss(int(pc))
	})
	c := New(DefaultConfig(), p, emu.New(p, nil), hier, nil)
	c.Run()

	if misses := hier.LLC.Stats().Misses; misses < iters/2 {
		t.Fatalf("LLC misses = %d, kernel did not exercise the drain path", misses)
	}
	if n := ib.DLTSize(); n != 0 {
		t.Errorf("delinquent load table has %d entries after a load-free kernel, want 0 (store PCs leaked)", n)
	}
}
