package emu

import (
	"testing"
	"testing/quick"

	"crisp/internal/isa"
	"crisp/internal/program"
)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	addrs := []uint64{0, 8, pageSize, pageSize - 6, 1 << 40, 1<<40 + pageSize - 3}
	for i, a := range addrs {
		want := int64(0x0102030405060708)*int64(i+1) - 7
		m.WriteWord(a, want)
		if got := m.ReadWord(a); got != want {
			t.Errorf("ReadWord(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0xdeadbeef); got != 0 {
		t.Errorf("unbacked read = %d, want 0", got)
	}
	if m.Pages() != 0 {
		t.Errorf("reads allocated pages: %d", m.Pages())
	}
}

func TestMemoryRoundTripQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v int64) bool {
		addr &= (1 << 44) - 1 // keep page map small-ish
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	// A write straddling a page boundary must not clobber neighbours.
	m.WriteWord(pageSize-8, 0x1111111111111111)
	m.WriteWord(pageSize-4, -1)
	m.WriteWord(pageSize+4, 0x2222222222222222)
	if got := m.ReadWord(pageSize - 4); got != -1 {
		t.Errorf("straddle read = %#x", got)
	}
}

// TestMemoryStraddleOffFourKiB: words that straddle a page boundary which
// is not a 4 KiB boundary (1020 with 1 KiB pages) — one read and written a
// word at a time, a run written and read in one call, and a fork written
// across the boundary — so that an access path still assuming 4 KiB pages
// fails here instead of passing on boundaries both sizes share.
func TestMemoryStraddleOffFourKiB(t *testing.T) {
	const a = pageSize - 4
	if (a+4)%4096 == 0 {
		t.Fatalf("page boundary %d is a 4 KiB boundary", a+4)
	}
	m := NewMemory()
	m.WriteWord(a, 0x0102030405060708)
	if got := m.ReadWord(a); got != 0x0102030405060708 {
		t.Errorf("ReadWord(%d) = %#x", a, got)
	}
	if got := m.ReadWord(pageSize); got != 0x01020304 {
		t.Errorf("the word's high half reads %#x at the next page", got)
	}
	if m.Pages() != 2 {
		t.Errorf("a straddling word backs %d pages, want 2", m.Pages())
	}

	vals := []int64{-1, -2, -3}
	m.WriteWords(a-8, vals)
	got := make([]int64, len(vals))
	m.ReadWords(a-8, got)
	for i, v := range vals {
		if got[i] != v || m.ReadWord(a-8+uint64(8*i)) != v {
			t.Errorf("word %d: ReadWords %d, ReadWord %d; want %d", i, got[i], m.ReadWord(a-8+uint64(8*i)), v)
		}
	}

	image := m.Snapshot()
	fork := image.Snapshot()
	fork.WriteWord(a, 7)
	if got := fork.ReadWord(a); got != 7 {
		t.Errorf("fork reads %d after its straddling write, want 7", got)
	}
	if got := fork.ReadWord(a + 8); got != -3 {
		t.Errorf("fork's next word = %d, want -3", got)
	}
	if got := image.ReadWord(a); got != -2 {
		t.Errorf("the fork's straddling write leaked into its image: %d", got)
	}
}

// sumProgram computes sum of 0..n-1 in r1.
func sumProgram(t *testing.T, n int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("sum")
	b.MovI(isa.R(1), 0) // acc
	b.MovI(isa.R(2), 0) // i
	b.MovI(isa.R(3), n)
	b.Label("loop")
	b.Add(isa.R(1), isa.R(1), isa.R(2))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(3), "loop")
	b.Halt()
	return b.MustBuild()
}

func TestEmulatorArithmeticLoop(t *testing.T) {
	e := New(sumProgram(t, 100), nil)
	n := e.Run(0)
	if !e.Done() {
		t.Fatalf("program did not halt after %d insts", n)
	}
	if got := e.Reg(isa.R(1)); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	// 3 movi + 100 iterations * 3 + halt
	if want := uint64(3 + 300 + 1); n != want {
		t.Errorf("executed %d insts, want %d", n, want)
	}
}

func TestEmulatorLoadStore(t *testing.T) {
	b := program.NewBuilder("ls")
	b.MovI(isa.R(1), 0x1000)
	b.MovI(isa.R(2), 42)
	b.Store(isa.R(1), 8, isa.R(2))
	b.Load(isa.R(3), isa.R(1), 8)
	b.MovI(isa.R(4), 2)
	b.LoadIdx(isa.R(5), isa.R(1), isa.R(4), 0, 8) // scale 0: plain base+disp
	b.Halt()
	e := New(b.MustBuild(), nil)
	e.Run(0)
	if got := e.Reg(isa.R(3)); got != 42 {
		t.Errorf("loaded %d, want 42", got)
	}
	if got := e.Reg(isa.R(5)); got != 42 {
		t.Errorf("scale-0 indexed load = %d, want 42", got)
	}
}

func TestEmulatorIndexedLoad(t *testing.T) {
	mem := NewMemory()
	for i := int64(0); i < 10; i++ {
		mem.WriteWord(uint64(0x2000+8*i), i*i)
	}
	b := program.NewBuilder("idx")
	b.MovI(isa.R(1), 0x2000)
	b.MovI(isa.R(2), 7)
	b.LoadIdx(isa.R(3), isa.R(1), isa.R(2), 8, 0)
	b.Halt()
	e := New(b.MustBuild(), mem)
	e.Run(0)
	if got := e.Reg(isa.R(3)); got != 49 {
		t.Errorf("indexed load = %d, want 49", got)
	}
}

func TestEmulatorBranchOutcomes(t *testing.T) {
	p := sumProgram(t, 3)
	e := New(p, nil)
	var branches []DynInst
	for {
		d, ok := e.Step()
		if !ok {
			break
		}
		if d.Inst.Op.IsCondBranch() {
			branches = append(branches, d)
		}
	}
	if len(branches) != 3 {
		t.Fatalf("saw %d branch executions, want 3", len(branches))
	}
	for i, d := range branches[:2] {
		if !d.Taken || d.NextPC != p.Label("loop") {
			t.Errorf("branch %d: taken=%v next=%d, want taken to loop", i, d.Taken, d.NextPC)
		}
	}
	if last := branches[2]; last.Taken {
		t.Errorf("final branch taken, want fall-through")
	}
}

func TestEmulatorCallRet(t *testing.T) {
	b := program.NewBuilder("fn")
	b.MovI(isa.R(1), 5)
	b.Call("double", isa.R(31))
	b.Mov(isa.R(3), isa.R(2))
	b.Halt()
	b.Label("double")
	b.Add(isa.R(2), isa.R(1), isa.R(1))
	b.Ret(isa.R(31))
	e := New(b.MustBuild(), nil)
	e.Run(0)
	if got := e.Reg(isa.R(3)); got != 10 {
		t.Errorf("call/ret result = %d, want 10", got)
	}
}

func TestEmulatorDivByZero(t *testing.T) {
	b := program.NewBuilder("div0")
	b.MovI(isa.R(1), 7)
	b.MovI(isa.R(2), 0)
	b.Div(isa.R(3), isa.R(1), isa.R(2))
	b.Rem(isa.R(4), isa.R(1), isa.R(2))
	b.Halt()
	e := New(b.MustBuild(), nil)
	e.Run(0)
	if e.Reg(isa.R(3)) != 0 || e.Reg(isa.R(4)) != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", e.Reg(isa.R(3)), e.Reg(isa.R(4)))
	}
}

func TestEmulatorSeqNumbersAndHalt(t *testing.T) {
	e := New(sumProgram(t, 2), nil)
	var prev uint64
	first := true
	for {
		d, ok := e.Step()
		if !ok {
			break
		}
		if !first && d.Seq != prev+1 {
			t.Fatalf("seq %d after %d", d.Seq, prev)
		}
		prev, first = d.Seq, false
	}
	if _, ok := e.Step(); ok {
		t.Errorf("Step after halt returned ok")
	}
	if _, ok := e.Step(); ok {
		t.Errorf("second Step after halt returned ok")
	}
}

func TestRunLimit(t *testing.T) {
	e := New(sumProgram(t, 1000000), nil)
	if n := e.Run(10); n != 10 {
		t.Errorf("Run(10) = %d", n)
	}
	if e.Done() {
		t.Errorf("Done after limited run")
	}
}

func TestMemoryWordsAcrossPages(t *testing.T) {
	m := NewMemory()
	// Batched writes and reads straddling a page boundary must agree with
	// word-at-a-time access.
	base := uint64(2*pageSize - 24)
	vals := []int64{1, -2, 3, -4, 5, -6} // 48 bytes: 24 before, 24 after the boundary
	m.WriteWords(base, vals)
	got := make([]int64, len(vals))
	m.ReadWords(base, got)
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("ReadWords[%d] = %d, want %d", i, got[i], vals[i])
		}
		if w := m.ReadWord(base + uint64(8*i)); w != vals[i] {
			t.Errorf("ReadWord(%#x) = %d, want %d", base+uint64(8*i), w, vals[i])
		}
	}
}

func TestMemoryReadWordsUnbacked(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 7) // back page 0 only
	dst := []int64{99, 99, 99}
	// Read straddles from backed page 0 into an unbacked page: the
	// unbacked tail must come back zero, and no page may be allocated.
	m.ReadWords(pageSize-8, dst)
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 {
		t.Errorf("unbacked ReadWords = %v, want zeros", dst)
	}
	if m.Pages() != 1 {
		t.Errorf("ReadWords allocated pages: %d", m.Pages())
	}
}

func TestMemoryPageCacheAliasing(t *testing.T) {
	m := NewMemory()
	// Page numbers 1 and 1+pcacheSize map to the same translation-cache
	// slot; interleaved access must not serve one page's data for the
	// other.
	a := uint64(1 * pageSize)
	b := uint64((1 + pcacheSize) * pageSize)
	m.WriteWord(a, 111)
	m.WriteWord(b, 222)
	for i := 0; i < 3; i++ {
		if got := m.ReadWord(a); got != 111 {
			t.Fatalf("aliased read a = %d, want 111", got)
		}
		if got := m.ReadWord(b); got != 222 {
			t.Fatalf("aliased read b = %d, want 222", got)
		}
	}
}

func TestMemorySnapshotIsolation(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, 1)
	m.WriteWord(0x2000, 2)
	snap := m.Snapshot()

	// Writes on either side must not leak to the other, including via the
	// page-translation caches populated before the snapshot.
	m.WriteWord(0x1000, 10)
	snap.WriteWord(0x2000, 20)
	if got := snap.ReadWord(0x1000); got != 1 {
		t.Errorf("snapshot saw parent write: %d", got)
	}
	if got := m.ReadWord(0x2000); got != 2 {
		t.Errorf("parent saw snapshot write: %d", got)
	}

	// An untouched page stays shared and readable on both sides.
	m.WriteWord(0x3000, 3)
	if got := snap.ReadWord(0x3000); got != 0 {
		t.Errorf("snapshot saw post-snapshot page: %d", got)
	}
}

func TestMemorySnapshotOfSnapshot(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0, 42)
	pristine := m.Snapshot()
	// A pristine snapshot (never written) can be re-snapshotted; all
	// three views remain independent for writes.
	fork := pristine.Snapshot()
	fork.WriteWord(0, 1)
	m.WriteWord(0, 2)
	if got := pristine.ReadWord(0); got != 42 {
		t.Errorf("pristine = %d, want 42", got)
	}
}

func TestFastForwardMatchesStep(t *testing.T) {
	prog := sumProgram(t, 50)
	ff := New(prog, nil)
	st := New(prog, nil)
	n := ff.FastForward(37, nil)
	if n != 37 {
		t.Fatalf("FastForward(37) = %d", n)
	}
	for i := 0; i < 37; i++ {
		st.Step()
	}
	if ff.PC() != st.PC() || ff.Regs() != st.Regs() || ff.Done() != st.Done() {
		t.Errorf("FastForward diverged from Step: pc %d vs %d", ff.PC(), st.PC())
	}
	// Finish both: same halt point.
	ff.FastForward(1<<20, nil)
	st.Run(0)
	if ff.PC() != st.PC() || ff.Regs() != st.Regs() || !ff.Done() {
		t.Errorf("post-halt state diverged")
	}
}

// countWarmer records FastForward's warming callbacks.
type countWarmer struct {
	instLines map[uint64]bool
	data      []uint64
	stores    int
	branches  int
	taken     int
}

func (w *countWarmer) WarmInstLine(lineAddr uint64) {
	if w.instLines == nil {
		w.instLines = map[uint64]bool{}
	}
	w.instLines[lineAddr] = true
}
func (w *countWarmer) WarmData(pc int, addr uint64, store bool) {
	w.data = append(w.data, addr)
	if store {
		w.stores++
	}
}
func (w *countWarmer) WarmBranch(pc int, in *isa.Inst, taken bool, nextPC int) {
	w.branches++
	if taken {
		w.taken++
	}
}

func TestFastForwardWarmerStream(t *testing.T) {
	b := program.NewBuilder("warm")
	b.MovI(isa.R(1), 0x1000)
	b.MovI(isa.R(2), 42)
	b.MovI(isa.R(4), 0)
	b.Label("loop")
	b.Store(isa.R(1), 0, isa.R(2))
	b.Load(isa.R(3), isa.R(1), 0)
	b.AddI(isa.R(4), isa.R(4), 1)
	b.MovI(isa.R(5), 3)
	b.Blt(isa.R(4), isa.R(5), "loop")
	b.Halt()
	w := &countWarmer{}
	e := New(b.MustBuild(), nil)
	e.FastForward(1<<20, w)
	if !e.Done() {
		t.Fatal("program did not halt")
	}
	if len(w.data) != 6 || w.stores != 3 {
		t.Errorf("data accesses = %d (stores %d), want 6 (3)", len(w.data), w.stores)
	}
	for _, a := range w.data {
		if a != 0x1000 {
			t.Errorf("data addr %#x, want 0x1000", a)
		}
	}
	if w.branches != 3 || w.taken != 2 {
		t.Errorf("branches = %d taken %d, want 3 taken 2", w.branches, w.taken)
	}
	if len(w.instLines) == 0 {
		t.Errorf("no instruction lines warmed")
	}
}
