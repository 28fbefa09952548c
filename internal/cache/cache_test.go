package cache

import (
	"testing"
	"testing/quick"

	"crisp/internal/dram"
)

// flatMem is a fixed-latency test backend.
type flatMem struct {
	latency  uint64
	accesses int
	writes   int
}

func (m *flatMem) Access(_ uint64, write bool, cycle uint64) uint64 {
	m.accesses++
	if write {
		m.writes++
	}
	return cycle + m.latency
}

func small(next Backend) *Cache {
	return New(Config{Name: "t", SizeKiB: 1, Ways: 2, Latency: 2, MSHRs: 4}, next)
}

func TestMissThenHit(t *testing.T) {
	mem := &flatMem{latency: 100}
	c := small(mem)
	done, depth := c.AccessPC(1, 0x1000, false, 0)
	if depth != 1 {
		t.Errorf("first access depth = %d, want 1 (miss)", depth)
	}
	if done != 102 { // latency 2 added before backend
		t.Errorf("miss done = %d, want 102", done)
	}
	done, depth = c.AccessPC(1, 0x1008, false, 200) // same line
	if depth != 0 || done != 202 {
		t.Errorf("hit = done %d depth %d, want 202, 0", done, depth)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Accesses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	mem := &flatMem{latency: 100}
	c := small(mem)
	done1, _ := c.AccessPC(1, 0x1000, false, 0)
	done2, depth := c.AccessPC(2, 0x1010, false, 5) // same line, still in flight
	if mem.accesses != 1 {
		t.Errorf("backend accesses = %d, want 1 (merged)", mem.accesses)
	}
	if done2 != done1 {
		t.Errorf("merged done = %d, want %d", done2, done1)
	}
	if depth != 1 {
		t.Errorf("merged depth = %d, want 1", depth)
	}
	if s := c.Stats(); s.MergedMisses != 1 {
		t.Errorf("merged misses = %d", s.MergedMisses)
	}
}

func TestHitUnderFill(t *testing.T) {
	mem := &flatMem{latency: 100}
	c := small(mem)
	done1, _ := c.AccessPC(1, 0x1000, false, 0)
	// An access before data arrival merges with the in-flight fill: it is
	// attributed to the fill's level and completes no earlier than it.
	done2, depth := c.AccessPC(1, 0x1000, false, done1-10)
	if depth != 1 {
		t.Errorf("depth = %d, want 1 (served by fill level)", depth)
	}
	if done2 < done1 {
		t.Errorf("hit-under-fill done %d before fill %d", done2, done1)
	}
	// After the fill lands it is a plain hit.
	done3, depth := c.AccessPC(1, 0x1000, false, done1+10)
	if depth != 0 || done3 != done1+12 {
		t.Errorf("post-fill access = done %d depth %d", done3, depth)
	}
}

func TestLRUEviction(t *testing.T) {
	mem := &flatMem{latency: 10}
	c := small(mem)                                           // 1 KiB, 2-way, 64B lines => 8 sets; set stride 512B
	a, b, e := uint64(0x0000), uint64(0x0200), uint64(0x0400) // same set
	c.AccessPC(1, a, false, 0)
	c.AccessPC(1, b, false, 100)
	c.AccessPC(1, a, false, 200) // a MRU
	c.AccessPC(1, e, false, 300) // evicts b
	if !c.Contains(a) || !c.Contains(e) {
		t.Errorf("a/e not resident")
	}
	if c.Contains(b) {
		t.Errorf("LRU line b survived")
	}
}

func TestWritebackOnDirtyEvict(t *testing.T) {
	mem := &flatMem{latency: 10}
	c := small(mem)
	c.AccessPC(1, 0x0000, true, 0) // write-allocate, dirty
	c.AccessPC(1, 0x0200, false, 100)
	c.AccessPC(1, 0x0400, false, 200) // evicts dirty 0x0000
	if s := c.Stats(); s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	if mem.writes != 1 {
		t.Errorf("backend writes = %d, want 1", mem.writes)
	}
}

func TestMSHRCapacityDelaysMisses(t *testing.T) {
	mem := &flatMem{latency: 1000}
	c := New(Config{Name: "t", SizeKiB: 64, Ways: 4, Latency: 2, MSHRs: 2}, mem)
	c.AccessPC(1, 0x10000, false, 0)
	c.AccessPC(1, 0x20000, false, 0)
	done3, _ := c.AccessPC(1, 0x30000, false, 0) // must wait for an MSHR
	if done3 <= 1002 {
		t.Errorf("third miss done = %d, should be delayed past first completions", done3)
	}
	if s := c.Stats(); s.MSHRStalls == 0 {
		t.Errorf("no MSHR stalls recorded")
	}
}

func TestPrefetchInstallsLine(t *testing.T) {
	mem := &flatMem{latency: 100}
	c := small(mem)
	c.Prefetch(0x1000, 0)
	if s := c.Stats(); s.Prefetches != 1 {
		t.Errorf("prefetches = %d", s.Prefetches)
	}
	// Demand after fill: hit, counted as prefetch hit.
	_, depth := c.AccessPC(1, 0x1000, false, 500)
	if depth != 0 {
		t.Errorf("post-prefetch access depth = %d, want hit", depth)
	}
	if s := c.Stats(); s.PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d", s.PrefetchHits)
	}
	// Prefetching a resident line is a no-op.
	c.Prefetch(0x1000, 600)
	if s := c.Stats(); s.Prefetches != 1 {
		t.Errorf("redundant prefetch issued")
	}
}

func TestMissObserverFiltersNoPC(t *testing.T) {
	mem := &flatMem{latency: 10}
	c := small(mem)
	var pcs []uint64
	c.SetRequesters(1)
	c.SetRequesterMissObserver(0, func(pc, _ uint64) { pcs = append(pcs, pc) })
	c.AccessPC(42, 0x1000, false, 0)
	c.Access(0x2000, false, 0) // NoPC
	c.Prefetch(0x3000, 0)
	if len(pcs) != 1 || pcs[0] != 42 {
		t.Errorf("observed pcs = %v, want [42]", pcs)
	}
}

type recordingPF struct{ got []uint64 }

func (p *recordingPF) OnAccess(_, addr uint64, _ bool) []uint64 {
	p.got = append(p.got, addr)
	return []uint64{addr + 64}
}

func TestPrefetcherFiresAndFills(t *testing.T) {
	mem := &flatMem{latency: 50}
	c := small(mem)
	pf := &recordingPF{}
	c.SetPrefetcher(pf)
	c.AccessPC(1, 0x1000, false, 0)
	if len(pf.got) != 1 {
		t.Fatalf("prefetcher saw %d accesses", len(pf.got))
	}
	// The next line should have been prefetched.
	if s := c.Stats(); s.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", s.Prefetches)
	}
	_, depth := c.AccessPC(1, 0x1040, false, 1000)
	if depth != 0 {
		t.Errorf("prefetched next line missed")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	_, by := h.Data(7, 0x100000, false, 0)
	if by != ServedDRAM {
		t.Errorf("cold access served by %v, want DRAM", by)
	}
	_, by = h.Data(7, 0x100000, false, 10000)
	if by != ServedL1 {
		t.Errorf("warm access served by %v, want L1", by)
	}
	// Evict from tiny L1 (32 KiB, 8 ways, 64 sets): 9 lines in one set.
	for i := 0; i < 9; i++ {
		h.Data(7, 0x200000+uint64(i)*32*1024, false, uint64(20000+i*1000))
	}
	_, by = h.Data(7, 0x200000, false, 50000)
	if by != ServedLLC {
		t.Errorf("L1-evicted line served by %v, want LLC", by)
	}
}

func TestHierarchyMLPTracking(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	// Issue 4 independent misses in the same cycle window.
	for i := 0; i < 4; i++ {
		h.Data(1, uint64(0x100000+i*1<<16), false, 10)
	}
	if got := h.OutstandingMisses(20); got != 4 {
		t.Errorf("outstanding = %d, want 4", got)
	}
	if got := h.OutstandingMisses(1 << 30); got != 0 {
		t.Errorf("outstanding after drain = %d, want 0", got)
	}
}

func TestHierarchyInstPath(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	_, hit := h.Inst(0x400000, 0)
	if hit {
		t.Errorf("cold ifetch hit")
	}
	_, hit = h.Inst(0x400000, 5000)
	if !hit {
		t.Errorf("warm ifetch missed")
	}
	h.PrefetchInst(0x400040, 6000)
	_, hit = h.Inst(0x400040, 9000)
	if !hit {
		t.Errorf("FDIP-prefetched line missed")
	}
}

// Property: completion never precedes issue + hit latency, and a second
// access to the same address at a later cycle is never slower than DRAM.
func TestCacheTimingProperty(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	var cycle uint64
	f := func(addr uint32, gap uint16) bool {
		cycle += uint64(gap)
		done, _ := h.Data(1, uint64(addr), false, cycle)
		if done < cycle+4 {
			return false
		}
		done2, _ := h.Data(1, uint64(addr), false, done+1)
		return done2 >= done+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	mem := &flatMem{latency: 10}
	c := small(mem)
	c.AccessPC(1, 0x1000, false, 0)
	c.AccessPC(1, 0x1000, false, 100)
	c.AccessPC(1, 0x1000, false, 200)
	c.AccessPC(1, 0x1000, false, 300)
	s := c.Stats()
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("miss rate = %v, want 0.25", got)
	}
}

func TestHierarchyWithRealDRAMLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	done, by := h.Data(1, 0x500000, false, 0)
	if by != ServedDRAM {
		t.Fatalf("served by %v", by)
	}
	// L1(4) + LLC(36) + DRAM(min ~72) >= 110 cycles.
	min := uint64(4+36) + dram.New(dram.DefaultConfig()).MinReadLatency()
	if done < min-20 {
		t.Errorf("DRAM access done = %d, suspiciously fast (min ~%d)", done, min)
	}
	if done > 600 {
		t.Errorf("DRAM access done = %d, suspiciously slow", done)
	}
}

// The LRU clock was a uint32: after ~4B touches it wrapped, giving newly
// touched lines *smaller* timestamps than stale ones and inverting every
// subsequent victim choice. Seed the clock at the old wrap point and check
// the least-recently-used line is still the one evicted.
func TestLRUClockWraparound(t *testing.T) {
	mem := &flatMem{latency: 100}
	c := small(mem)
	c.lruClock = 1<<32 - 2 // A's touch gets the last value a uint32 could hold

	// Three lines in the same 2-way set: A, then B (whose touch crosses the
	// old uint32 boundary), then C, which must evict A — the oldest. With a
	// wrapping clock B's timestamp would be 0, making B the victim instead.
	const a, b2, c3 = 0x0000, 0x0200, 0x0400
	c.AccessPC(1, a, false, 0)
	c.AccessPC(1, b2, false, 1000)
	c.AccessPC(1, c3, false, 2000)

	if c.lruClock <= 1<<32-1 {
		t.Fatalf("lruClock = %d, did not cross the old uint32 limit", c.lruClock)
	}
	if c.Contains(a) {
		t.Errorf("line A resident: LRU victim selection inverted across clock wrap")
	}
	if !c.Contains(b2) || !c.Contains(c3) {
		t.Errorf("resident lines: B=%v C=%v, want both (A should have been evicted)",
			c.Contains(b2), c.Contains(c3))
	}
}
