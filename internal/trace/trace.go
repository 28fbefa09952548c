// Package trace captures dynamic instruction streams from the functional
// emulator and keeps what the CRISP slicer walks backwards: each
// instruction's static PC and its producer links, through registers and
// through memory. This stands in for the DynamoRIO-Memtrace / Intel-PT
// tracing step of the paper's software pipeline (Section 3.3): it reads
// exactly the information a memory trace provides and keeps what the
// slicer needs of it, including store-to-load dependencies that
// register-only hardware IBDA cannot observe.
//
// A trace stores one 16-bit PC per instruction and derives the links on
// demand, about 2.5 bytes an instruction in all. A register producer is
// the last record before i that writes the register: Deps scans back to
// the start of i's 256-record block, and otherwise reads the block's
// snapshot of every register's last writer, which is what the capture's
// running table held there. The next block's snapshot answers without a
// scan when the register is not written from i to the block's end. A
// load's store producer cannot be derived from PCs, so the few loads that
// have one keep it in a sorted side table.
package trace

import (
	"fmt"
	"slices"

	"crisp/internal/emu"
	"crisp/internal/isa"
)

// NoDep marks an absent producer link.
const NoDep = ^uint32(0)

// MaxPC is the largest static PC a trace can record: PCs are kept in 16
// bits.
const MaxPC = 1<<16 - 1

// blockLen is the number of records one register snapshot covers: the
// longest backward scan a register link costs.
const blockLen = 256

// Record is one traced dynamic instruction: its static PC and resolved
// producer links, all the slicer reads. The effective address is used up
// at capture, resolving MemDep; the instruction is the program's at PC.
// Producer links are record indices (not Seq numbers) so slices of a
// bounded trace index directly.
//
// RegDep1/RegDep2 are the producers of the instruction's first and second
// source registers. MemDep is, for loads, the most recent older store to
// an overlapping 8-byte word — the "dependency through memory" of
// Section 3.3 footnote 2.
type Record struct {
	PC      uint32
	RegDep1 uint32
	RegDep2 uint32
	MemDep  uint32
}

// Trace is a captured window of dynamic execution.
type Trace struct {
	// pcs is each record's static PC.
	pcs []uint16
	// regs[pc] is the registers the instruction at pc reads and writes.
	regs []pcRegs
	// snaps[b] is the record index of each register's last writer before
	// record b*blockLen, or NoDep if none in the trace.
	snaps [][isa.NumRegs]uint32
	// memLoads lists, ascending, the loads whose word a store earlier in
	// the trace wrote; memStores[k] is that store for memLoads[k].
	memLoads, memStores []uint32
	// counts[pc] is how many records run pc.
	counts []uint64
}

// pcRegs is a static instruction's register operands (isa.NoReg if none).
type pcRegs struct{ src1, src2, dst isa.Reg }

// storeIndexPageWords is the granularity of the capture-time store index:
// one page covers 512 aligned 8-byte words (4 KiB of address space).
const storeIndexPageWords = 512

// storeIndex maps 8-byte-aligned word addresses to the trace index of the
// most recent store covering them. It is a sparse paged array with a
// last-page register so the per-instruction hot path of Capture indexes
// an array instead of hashing into a map.
type storeIndex struct {
	pages  map[uint64]*[storeIndexPageWords]uint32
	lastPN uint64
	lastPg *[storeIndexPageWords]uint32
}

func (s *storeIndex) page(word uint64, alloc bool) *[storeIndexPageWords]uint32 {
	pn := word / storeIndexPageWords
	if s.lastPg != nil && s.lastPN == pn {
		return s.lastPg
	}
	p := s.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new([storeIndexPageWords]uint32)
		for i := range p {
			p[i] = NoDep
		}
		s.pages[pn] = p
	}
	s.lastPN, s.lastPg = pn, p
	return p
}

func (s *storeIndex) get(word uint64) uint32 {
	if p := s.page(word, false); p != nil {
		return p[word%storeIndexPageWords]
	}
	return NoDep
}

func (s *storeIndex) set(word uint64, idx uint32) {
	s.page(word, true)[word%storeIndexPageWords] = idx
}

// Capture runs the emulator for at most limit instructions (to Halt if
// limit <= 0), recording every instruction's PC, resolving its store
// producer and counting executions per PC on the fly. It panics on a PC
// above MaxPC.
func Capture(e *emu.Emulator, limit uint64) *Trace {
	t := &Trace{}
	if limit > 0 {
		t.pcs = make([]uint16, 0, limit)
		t.snaps = make([][isa.NumRegs]uint32, 0, (limit+blockLen-1)/blockLen)
	}
	// lastRegWriter[r] is the trace index of the most recent writer of r,
	// or NoDep if r was last written before the trace window.
	var lastRegWriter [isa.NumRegs]uint32
	for i := range lastRegWriter {
		lastRegWriter[i] = NoDep
	}
	lastStore := &storeIndex{pages: make(map[uint64]*[storeIndexPageWords]uint32)}

	var d emu.DynInst
	for n := uint64(0); (limit <= 0 || n < limit) && e.StepInto(&d); n++ {
		idx := uint32(len(t.pcs))
		if idx%blockLen == 0 {
			t.snaps = append(t.snaps, lastRegWriter)
		}
		pc, in := d.PC, d.Inst
		if pc >= len(t.counts) {
			if pc > MaxPC {
				panic(fmt.Sprintf("trace: static PC %d is not below %d, the limit of a 16-bit trace PC", pc, MaxPC+1))
			}
			t.counts = append(t.counts, make([]uint64, pc+1-len(t.counts))...)
			t.regs = append(t.regs, make([]pcRegs, pc+1-len(t.regs))...)
		}
		if t.counts[pc] == 0 {
			t.regs[pc] = pcRegs{in.Src1, in.Src2, in.Dst}
		}
		t.counts[pc]++
		switch in.Op {
		case isa.OpLoad:
			if dep := lastStore.get(d.Addr >> 3); dep != NoDep {
				t.memLoads = append(t.memLoads, idx)
				t.memStores = append(t.memStores, dep)
			}
		case isa.OpStore:
			lastStore.set(d.Addr>>3, idx)
		}
		if in.HasDst() {
			lastRegWriter[in.Dst] = idx
		}
		t.pcs = append(t.pcs, uint16(pc))
	}
	if len(t.pcs) < cap(t.pcs) {
		// Halted before the limit: keep no room for records never taken.
		t.pcs = slices.Clone(t.pcs)
		t.snaps = slices.Clone(t.snaps)
	}
	return t
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.pcs) }

// PC returns record i's static PC.
func (t *Trace) PC(i int) int { return int(t.pcs[i]) }

// Record returns record i with its producer links resolved.
func (t *Trace) Record(i int) Record {
	pc := t.pcs[i]
	r := Record{PC: uint32(pc), RegDep1: NoDep, RegDep2: NoDep, MemDep: NoDep}
	if src := t.regs[pc].src1; src.Valid() {
		r.RegDep1 = t.lastWriter(i, src)
	}
	if src := t.regs[pc].src2; src.Valid() {
		r.RegDep2 = t.lastWriter(i, src)
	}
	if k, ok := slices.BinarySearch(t.memLoads, uint32(i)); ok {
		r.MemDep = t.memStores[k]
	}
	return r
}

// lastWriter returns the last record before i that writes reg, or NoDep.
func (t *Trace) lastWriter(i int, reg isa.Reg) uint32 {
	b := i / blockLen
	// The next block's snapshot holds reg's last writer up to the end of
	// i's block. If that writer precedes i, no record between it and i
	// writes reg, so it is the answer and no scan is needed.
	if b+1 < len(t.snaps) {
		if w := t.snaps[b+1][reg]; w == NoDep || int(w) < i {
			return w
		}
	}
	for j := i - 1; j >= b*blockLen; j-- {
		if t.regs[t.pcs[j]].dst == reg {
			return uint32(j)
		}
	}
	return t.snaps[b][reg]
}

// Deps appends the producer indices of record i to dst and returns it.
func (t *Trace) Deps(i int, dst []uint32) []uint32 {
	r := t.Record(i)
	if r.RegDep1 != NoDep {
		dst = append(dst, r.RegDep1)
	}
	if r.RegDep2 != NoDep && r.RegDep2 != r.RegDep1 {
		dst = append(dst, r.RegDep2)
	}
	if r.MemDep != NoDep {
		dst = append(dst, r.MemDep)
	}
	return dst
}

// LastInstances returns the trace indices of the last n executions of
// static PC pc, in program order: fewer if pc ran fewer times. It scans
// backwards from the end and stops at the n-th hit.
func (t *Trace) LastInstances(pc, n int) []uint32 {
	var out []uint32
	for i := len(t.pcs) - 1; i >= 0 && len(out) < n; i-- {
		if int(t.pcs[i]) == pc {
			out = append(out, uint32(i))
		}
	}
	slices.Reverse(out)
	return out
}

// ExecCounts returns per-static-PC dynamic execution counts, indexed by PC
// up to progLen: a copy of what the capture counted.
func (t *Trace) ExecCounts(progLen int) []uint64 {
	counts := make([]uint64, progLen)
	copy(counts, t.counts)
	return counts
}
