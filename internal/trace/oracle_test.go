package trace_test

import (
	"slices"
	"testing"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/sim"
	"crisp/internal/trace"
	"crisp/internal/workload"
)

// The capture as it was while a trace stored one 16-byte Record per
// instruction, kept verbatim as the oracle of TestCaptureMatchesOracle.
// Only the type names changed.

const NoDep = trace.NoDep

type refTrace struct {
	Records []trace.Record
}

const storeIndexPageWords = 512

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

func refCapture(e *emu.Emulator, limit uint64) *refTrace {
	tr := &refTrace{}
	if limit > 0 {
		tr.Records = make([]trace.Record, 0, limit)
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
		rec := trace.Record{PC: uint32(d.PC), RegDep1: NoDep, RegDep2: NoDep, MemDep: NoDep}
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

// ExecCounts is the oracle's count: one pass over the records.
func (t *refTrace) ExecCounts(progLen int) []uint64 {
	counts := make([]uint64, progLen)
	for i := range t.Records {
		counts[t.Records[i].PC]++
	}
	return counts
}

// TestCaptureMatchesOracle: on every kernel's train and ref inputs, every
// record the capture derives equals the one the 16-byte capture stored,
// and so do the per-PC execution counts. -short keeps the 200k budget.
func TestCaptureMatchesOracle(t *testing.T) {
	budgets := []uint64{200_000, 1_800_000}
	if testing.Short() {
		budgets = budgets[:1]
	}
	var memDeps int
	for _, insts := range budgets {
		for _, w := range workload.All() {
			for _, in := range []workload.Variant{workload.Train, workload.Ref} {
				// A capture writes its image's memory: each gets its own.
				img := w.Build(in)
				tr := sim.CaptureTrace(img, insts)
				refImg := w.Build(in)
				em := emu.New(refImg.Prog, refImg.Mem)
				for r, v := range refImg.Regs {
					em.SetReg(r, v)
				}
				ref := refCapture(em, insts)
				if tr.Len() != len(ref.Records) {
					t.Errorf("%s/%v at %d: %d records, oracle %d", w.Name, in, insts, tr.Len(), len(ref.Records))
					continue
				}
				for i, want := range ref.Records {
					if got := tr.Record(i); got != want {
						t.Errorf("%s/%v at %d: record %d = %+v, oracle %+v", w.Name, in, insts, i, got, want)
						break
					}
					if want.MemDep != NoDep {
						memDeps++
					}
				}
				n := img.Prog.Len()
				if got, want := tr.ExecCounts(n), ref.ExecCounts(n); !slices.Equal(got, want) {
					t.Errorf("%s/%v at %d: ExecCounts = %v, oracle %v", w.Name, in, insts, got, want)
				}
			}
		}
	}
	if memDeps == 0 {
		t.Error("no record has a store producer: the side table went unchecked")
	}
}
