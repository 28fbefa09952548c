// Package trace captures dynamic instruction streams from the functional
// emulator and precomputes producer links (through registers and through
// memory) that the CRISP slicer walks backwards. This stands in for the
// DynamoRIO-Memtrace / Intel-PT tracing step of the paper's software
// pipeline (Section 3.3): it reads exactly the information a memory trace
// provides and keeps what the slicer needs of it, including store-to-load
// dependencies that register-only hardware IBDA cannot observe.
package trace

import (
	"slices"

	"crisp/internal/emu"
	"crisp/internal/isa"
)

// NoDep marks an absent producer link.
const NoDep = ^uint32(0)

// Record is one traced dynamic instruction: its static PC and resolved
// producer links, all the slicer reads. The effective address is used up
// at capture, resolving MemDep; the instruction is the program's at PC.
// Producer links are indices into the owning Trace's Records slice (not
// Seq numbers) so slices of a bounded trace index directly.
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
	Records []Record
}

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
// limit <= 0), recording every instruction and resolving producer links on
// the fly.
func Capture(e *emu.Emulator, limit uint64) *Trace {
	tr := &Trace{}
	if limit > 0 {
		tr.Records = make([]Record, 0, limit)
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
		idx := uint32(len(tr.Records))
		rec := Record{PC: uint32(d.PC), RegDep1: NoDep, RegDep2: NoDep, MemDep: NoDep}
		in := d.Inst
		if in.Src1.Valid() {
			rec.RegDep1 = lastRegWriter[in.Src1]
		}
		if in.Src2.Valid() {
			rec.RegDep2 = lastRegWriter[in.Src2]
		}
		switch in.Op {
		case isa.OpLoad:
			rec.MemDep = lastStore.get(d.Addr >> 3)
		case isa.OpStore:
			lastStore.set(d.Addr>>3, idx)
		}
		if in.HasDst() {
			lastRegWriter[in.Dst] = idx
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Deps appends the producer indices of record i to dst and returns it.
func (t *Trace) Deps(i int, dst []uint32) []uint32 {
	r := &t.Records[i]
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
	for i := len(t.Records) - 1; i >= 0 && len(out) < n; i-- {
		if int(t.Records[i].PC) == pc {
			out = append(out, uint32(i))
		}
	}
	slices.Reverse(out)
	return out
}

// ExecCounts returns per-static-PC dynamic execution counts, indexed by PC
// up to progLen.
func (t *Trace) ExecCounts(progLen int) []uint64 {
	counts := make([]uint64, progLen)
	for i := range t.Records {
		counts[t.Records[i].PC]++
	}
	return counts
}
