// Package emu implements a functional emulator for isa programs. The
// emulator maintains architectural state (registers and a sparse paged
// byte memory) and produces the dynamic instruction stream consumed by the
// timing model ("execute-at-fetch" trace-driven simulation) and by the
// CRISP software pipeline's tracer.
package emu

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync"

	"crisp/internal/isa"
	"crisp/internal/program"
)

// DynInst is one dynamic instruction: a static instruction instance with
// its resolved effective address, branch outcome, and successor PC. Seq is
// the dynamic sequence number (0-based retirement order).
type DynInst struct {
	Seq    uint64
	PC     int
	NextPC int
	Addr   uint64 // effective address for loads/stores
	Taken  bool   // outcome for branches (unconditional: true)
	Inst   *isa.Inst
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// pcacheSize is the direct-mapped page-translation cache in front of
	// the page tables. Must be a power of two.
	pcacheSize = 64
	pcacheMask = pcacheSize - 1
)

// page is one page of backing storage.
type page = [pageSize]byte

// Memory is a sparse, paged byte-addressable memory. The zero value is
// ready to use. Reads of unbacked addresses return zero.
//
// A memory is a frozen base page table plus a private overlay. The base
// (map and pages alike) is shared with every fork and never mutated once
// it is shared; the overlay holds the pages this memory has written since
// its last fork and shadows the base. Snapshot folds the overlay into a
// new base and hands the fork a pointer to it, so forking a clean memory
// — a checkpoint image, a workload's pristine image — is O(1) and needs
// no lock, and checkpointed state stays pristine while the emulator and
// restored runs keep executing.
//
// Page translation is served by a last-page register per direction and a
// small direct-mapped cache whose tags carry a writable bit, so the
// common sequential- and strided-access cases skip hashing entirely and
// a store to an already-private page never consults a map. Pages are
// never deallocated; a translation changes only when a store privatises
// the page (pageW refreshes it) or a fork freezes it (Snapshot clears the
// writable bits).
type Memory struct {
	base *frozen          // shared with forks; nil = no page
	own  map[uint64]*page // private: written since the last fork

	lastPN, lastWPN uint64 // last page read, last page written
	lastPg, lastWPg *page

	pcacheTag [pcacheSize]uint64 // (pn+1)<<1 | writable; 0 = invalid
	pcachePg  [pcacheSize]*page
}

// frozen is a page table no memory writes any more: the base of every
// fork taken since it was built. Being immutable and shared by identity,
// it is also where a fact about its contents is worth keeping (see ID).
type frozen struct {
	pages  map[uint64]*page
	idOnce sync.Once
	id     ImageID
}

// table returns the frozen pages; a nil base holds none.
func (f *frozen) table() map[uint64]*page {
	if f == nil {
		return nil
	}
	return f.pages
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{own: make(map[uint64]*page)} }

// Snapshot forks the memory copy-on-write and returns the fork. Both
// sides share every page until one of them writes it, which copies it
// into that side's overlay first. The fork is immediately usable and
// itself forkable.
//
// A clean memory (nothing written since it was forked, decoded or last
// snapshotted) is not mutated: the fork costs one allocation whatever the
// page count, and concurrent Snapshot calls on one clean memory are safe.
// A dirty memory first builds one merged table, O(resident pages).
func (m *Memory) Snapshot() *Memory {
	if len(m.own) != 0 {
		m.base, m.own, m.lastWPg = &frozen{pages: m.table()}, nil, nil
		for i := range m.pcacheTag {
			m.pcacheTag[i] &^= 1
		}
	}
	return &Memory{base: m.base}
}

// table returns the whole page table: the base itself when the memory is
// clean, else a merged copy. Callers must not mutate it.
func (m *Memory) table() map[uint64]*page {
	base := m.base.table()
	if len(m.own) == 0 {
		return base
	}
	t := make(map[uint64]*page, len(base)+len(m.own))
	maps.Copy(t, base)
	maps.Copy(t, m.own)
	return t
}

// page resolves addr's page for reading; nil if unbacked (not cached: the
// page may be allocated later and the cached nil would go stale).
func (m *Memory) page(addr uint64) *page {
	pn := addr >> pageShift
	if m.lastPg != nil && m.lastPN == pn {
		return m.lastPg
	}
	idx := pn & pcacheMask
	p := m.pcachePg[idx]
	if m.pcacheTag[idx]>>1 != pn+1 {
		w := uint64(1)
		if p = m.own[pn]; p == nil {
			if p = m.base.table()[pn]; p == nil {
				return nil
			}
			w = 0
		}
		m.pcacheTag[idx], m.pcachePg[idx] = (pn+1)<<1|w, p
	}
	m.lastPN, m.lastPg = pn, p
	return p
}

// pageW resolves addr's page for writing. Only a store's first touch of a
// page since the last fork reaches the maps: it allocates the page, or
// copies the frozen one into the overlay, and repoints the read
// translations so no stale shared pointer is read after the write.
func (m *Memory) pageW(addr uint64) *page {
	pn := addr >> pageShift
	if m.lastWPg != nil && m.lastWPN == pn {
		return m.lastWPg
	}
	idx := pn & pcacheMask
	p := m.pcachePg[idx]
	if m.pcacheTag[idx] != (pn+1)<<1|1 {
		if p = m.own[pn]; p == nil {
			p = new(page)
			if b := m.base.table()[pn]; b != nil {
				*p = *b
			}
			if m.own == nil {
				m.own = make(map[uint64]*page)
			}
			m.own[pn] = p
			if m.lastPN == pn {
				m.lastPg = p
			}
		}
		m.pcacheTag[idx], m.pcachePg[idx] = (pn+1)<<1|1, p
	}
	m.lastWPN, m.lastWPg = pn, p
	return p
}

// ReadWord reads the 8-byte little-endian word at addr (may straddle a
// page boundary).
func (m *Memory) ReadWord(addr uint64) int64 {
	if off := addr & pageMask; off <= pageSize-8 {
		p := m.page(addr)
		if p == nil {
			return 0
		}
		return int64(binary.LittleEndian.Uint64(p[off:]))
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.readByte(addr+i)) << (8 * i)
	}
	return int64(v)
}

// WriteWord writes the 8-byte little-endian word v at addr.
func (m *Memory) WriteWord(addr uint64, v int64) {
	if off := addr & pageMask; off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.pageW(addr)[off:], uint64(v))
		return
	}
	u := uint64(v)
	for i := uint64(0); i < 8; i++ {
		m.writeByte(addr+i, byte(u>>(8*i)))
	}
}

// WriteWords writes len(vals) consecutive 8-byte little-endian words
// starting at addr, resolving each page once per in-page run instead of
// once per word. Workload initializers use it to populate large arrays.
func (m *Memory) WriteWords(addr uint64, vals []int64) {
	for len(vals) > 0 {
		off := addr & pageMask
		if off > pageSize-8 {
			m.WriteWord(addr, vals[0]) // straddling word: slow path
			addr += 8
			vals = vals[1:]
			continue
		}
		p := m.pageW(addr)
		n := int((pageSize - off) / 8)
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(p[off+uint64(i)*8:], uint64(vals[i]))
		}
		addr += uint64(n) * 8
		vals = vals[n:]
	}
}

// ReadWords fills dst with len(dst) consecutive 8-byte little-endian
// words starting at addr; unbacked ranges read as zero.
func (m *Memory) ReadWords(addr uint64, dst []int64) {
	for len(dst) > 0 {
		off := addr & pageMask
		if off > pageSize-8 {
			dst[0] = m.ReadWord(addr) // straddling word: slow path
			addr += 8
			dst = dst[1:]
			continue
		}
		n := int((pageSize - off) / 8)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.page(addr); p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			for i := 0; i < n; i++ {
				dst[i] = int64(binary.LittleEndian.Uint64(p[off+uint64(i)*8:]))
			}
		}
		addr += uint64(n) * 8
		dst = dst[n:]
	}
}

func (m *Memory) readByte(addr uint64) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

func (m *Memory) writeByte(addr uint64, b byte) {
	m.pageW(addr)[addr&pageMask] = b
}

// Pages returns the number of resident pages (for footprint reporting).
func (m *Memory) Pages() int { return len(m.table()) }

// Emulator executes a program functionally, one instruction per Step.
type Emulator struct {
	prog *program.Program
	mem  *Memory
	regs [isa.NumRegs]int64
	pc   int
	seq  uint64
	done bool
}

// New returns an emulator positioned at entry PC 0 of prog, using mem as
// its data memory (workloads pre-populate it). A nil mem allocates a fresh
// one.
func New(prog *program.Program, mem *Memory) *Emulator {
	if mem == nil {
		mem = NewMemory()
	}
	return &Emulator{prog: prog, mem: mem}
}

// Resume returns an emulator positioned mid-program: at pc with the given
// architectural register file over mem. Checkpoint restore uses it to
// start detailed windows from fast-forwarded state.
func Resume(prog *program.Program, mem *Memory, pc int, regs [isa.NumRegs]int64) *Emulator {
	e := New(prog, mem)
	e.pc = pc
	e.regs = regs
	return e
}

// Mem returns the emulator's data memory.
func (e *Emulator) Mem() *Memory { return e.mem }

// Reg returns the current architectural value of r.
func (e *Emulator) Reg(r isa.Reg) int64 { return e.regs[r] }

// Regs returns a copy of the architectural register file (for
// checkpointing).
func (e *Emulator) Regs() [isa.NumRegs]int64 { return e.regs }

// SetReg sets an architectural register (used by workload setup to pass
// base pointers and sizes).
func (e *Emulator) SetReg(r isa.Reg, v int64) { e.regs[r] = v }

// Done reports whether the program has executed Halt.
func (e *Emulator) Done() bool { return e.done }

// PC returns the PC of the next instruction to execute.
func (e *Emulator) PC() int { return e.pc }

// Step executes one instruction and returns its dynamic record. ok is
// false once the program has halted. Step panics on a control-flow transfer
// outside the program, which indicates a broken kernel.
func (e *Emulator) Step() (d DynInst, ok bool) {
	ok = e.StepInto(&d)
	return d, ok
}

// StepInto is Step writing the record where its caller wants it (the core
// passes its fetch queue's tail slot). Step is small enough to inline, so
// every caller's record is filled in place: a six-word struct returned by
// value comes back in registers and is copied to its variable through a
// spill, word stores read back as vector loads, which stalled the warmed
// fast-forward loop for a tenth of a capture.
func (e *Emulator) StepInto(d *DynInst) bool {
	if e.done {
		*d = DynInst{}
		return false
	}
	if e.pc < 0 || e.pc >= e.prog.Len() {
		panic(fmt.Sprintf("emu: pc %d out of range in %q", e.pc, e.prog.Name))
	}
	in := &e.prog.Insts[e.pc]
	*d = DynInst{Seq: e.seq, PC: e.pc, Inst: in}
	e.seq++
	next := e.pc + 1

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		e.regs[in.Dst] = e.regs[in.Src1] + e.regs[in.Src2]
	case isa.OpAddI:
		e.regs[in.Dst] = e.regs[in.Src1] + in.Imm
	case isa.OpSub:
		e.regs[in.Dst] = e.regs[in.Src1] - e.regs[in.Src2]
	case isa.OpMul:
		e.regs[in.Dst] = e.regs[in.Src1] * e.regs[in.Src2]
	case isa.OpDiv:
		if v := e.regs[in.Src2]; v != 0 {
			e.regs[in.Dst] = e.regs[in.Src1] / v
		} else {
			e.regs[in.Dst] = 0
		}
	case isa.OpRem:
		if v := e.regs[in.Src2]; v != 0 {
			e.regs[in.Dst] = e.regs[in.Src1] % v
		} else {
			e.regs[in.Dst] = 0
		}
	case isa.OpAnd:
		e.regs[in.Dst] = e.regs[in.Src1] & e.regs[in.Src2]
	case isa.OpOr:
		e.regs[in.Dst] = e.regs[in.Src1] | e.regs[in.Src2]
	case isa.OpXor:
		e.regs[in.Dst] = e.regs[in.Src1] ^ e.regs[in.Src2]
	case isa.OpShl:
		e.regs[in.Dst] = e.regs[in.Src1] << (uint64(in.Imm) & 63)
	case isa.OpShr:
		e.regs[in.Dst] = int64(uint64(e.regs[in.Src1]) >> (uint64(in.Imm) & 63))
	case isa.OpMov:
		e.regs[in.Dst] = e.regs[in.Src1]
	case isa.OpMovI:
		e.regs[in.Dst] = in.Imm
	case isa.OpFAdd:
		e.regs[in.Dst] = e.regs[in.Src1] + e.regs[in.Src2]
	case isa.OpFMul:
		e.regs[in.Dst] = e.regs[in.Src1] * e.regs[in.Src2]
	case isa.OpFDiv:
		if v := e.regs[in.Src2]; v != 0 {
			e.regs[in.Dst] = e.regs[in.Src1] / v
		} else {
			e.regs[in.Dst] = 0
		}
	case isa.OpLoad:
		addr := uint64(e.regs[in.Src1]) + in.Imm64()
		if in.Src2.Valid() && in.Scale != 0 {
			addr += uint64(e.regs[in.Src2]) * uint64(in.Scale)
		}
		d.Addr = addr
		e.regs[in.Dst] = e.mem.ReadWord(addr)
	case isa.OpStore:
		addr := uint64(e.regs[in.Src1]) + in.Imm64()
		d.Addr = addr
		e.mem.WriteWord(addr, e.regs[in.Src2])
	case isa.OpBeq:
		d.Taken = e.regs[in.Src1] == e.src2OrZero(in)
		if d.Taken {
			next = in.Target
		}
	case isa.OpBne:
		d.Taken = e.regs[in.Src1] != e.src2OrZero(in)
		if d.Taken {
			next = in.Target
		}
	case isa.OpBlt:
		d.Taken = e.regs[in.Src1] < e.src2OrZero(in)
		if d.Taken {
			next = in.Target
		}
	case isa.OpBge:
		d.Taken = e.regs[in.Src1] >= e.src2OrZero(in)
		if d.Taken {
			next = in.Target
		}
	case isa.OpJmp:
		d.Taken = true
		next = in.Target
	case isa.OpCall:
		d.Taken = true
		e.regs[in.Dst] = int64(e.pc + 1)
		next = in.Target
	case isa.OpRet:
		d.Taken = true
		next = int(e.regs[in.Src1])
	case isa.OpHalt:
		e.done = true
		next = e.pc
	default:
		panic(fmt.Sprintf("emu: unknown op %v at pc %d", in.Op, e.pc))
	}

	d.NextPC = next
	e.pc = next
	return true
}

func (e *Emulator) src2OrZero(in *isa.Inst) int64 {
	if in.Src2.Valid() {
		return e.regs[in.Src2]
	}
	return 0
}

// Run executes up to limit instructions (or to Halt if limit <= 0) and
// returns the number executed.
func (e *Emulator) Run(limit uint64) uint64 {
	var n uint64
	for limit <= 0 || n < limit {
		if _, ok := e.Step(); !ok {
			break
		}
		n++
	}
	return n
}

// Warmer observes the functional instruction stream during FastForward so
// long-lived microarchitectural structures (cache tags, branch predictor,
// BTB, RAS) can be warmed without any core timing. Implementations must
// not charge statistics: warming precedes the measured detailed window.
type Warmer interface {
	// WarmInstLine is called once per executed 64B code line on a line
	// change (not per instruction), with the line-aligned byte address.
	WarmInstLine(lineAddr uint64)
	// WarmData is called for every load and store with the executing
	// instruction's PC (program index) and the effective address.
	WarmData(pc int, addr uint64, store bool)
	// WarmBranch is called for every control-flow instruction with its
	// outcome and successor PC.
	WarmBranch(pc int, in *isa.Inst, taken bool, nextPC int)
}

// NoLine is the code-line dedup state of a warm stream that has not
// delivered a line yet: no line address equals it, so the first
// instruction's line always reaches WarmInstLine.
const NoLine = ^uint64(0)

// FastForward executes up to limit instructions functionally (no core
// timing), optionally streaming the access/branch trace into w, and
// returns the number executed. With a nil warmer this is a plain
// emulator-speed skip; with a warmer it is the functional-warming phase
// of sampled simulation. A limit of 0 executes nothing.
func (e *Emulator) FastForward(limit uint64, w Warmer) uint64 {
	n, _ := e.FastForwardFrom(limit, w, NoLine)
	return n
}

// FastForwardFrom is FastForward for a caller that runs one warm stream
// as several calls, to look at a context in between. lastLine is the code
// line the stream last delivered to WarmInstLine: NoLine for the stream's
// first call, afterwards what the previous call returned. The warmer then
// sees exactly the calls one FastForward over the summed limits would have
// made, so how a stream is cut changes nothing it warms.
func (e *Emulator) FastForwardFrom(limit uint64, w Warmer, lastLine uint64) (uint64, uint64) {
	var n uint64
	if w == nil {
		for n < limit {
			if _, ok := e.Step(); !ok {
				break
			}
			n++
		}
		return n, lastLine
	}
	var d DynInst
	for n < limit && e.StepInto(&d) {
		n++
		if line := e.prog.ByteAddr(d.PC) &^ 63; line != lastLine {
			lastLine = line
			w.WarmInstLine(line)
		}
		switch op := d.Inst.Op; {
		case op == isa.OpLoad:
			w.WarmData(d.PC, d.Addr, false)
		case op == isa.OpStore:
			w.WarmData(d.PC, d.Addr, true)
		case op.IsBranch():
			w.WarmBranch(d.PC, d.Inst, d.Taken, d.NextPC)
		}
	}
	return n, lastLine
}
