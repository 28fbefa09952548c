package crisp_test

import (
	"fmt"
	"reflect"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/trace"
	"crisp/internal/workload"
)

// The capture as it was while a trace record carried the effective
// address, the branch outcome and the instruction (40 bytes), kept
// verbatim as the oracle of TestCaptureMatchesOracle and of the trace
// behind crisp.RefAnalyze. Only the type names changed.

const NoDep = trace.NoDep

type refRecord struct {
	PC      int
	Addr    uint64
	Taken   bool
	RegDep1 uint32
	RegDep2 uint32
	MemDep  uint32
	Inst    *isa.Inst
}

type refTrace struct {
	Records []refRecord
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
		tr.Records = make([]refRecord, 0, limit)
	}
	// lastRegWriter[r] is the trace index of the most recent writer of r,
	// or NoDep if r was last written before the trace window.
	var lastRegWriter [isa.NumRegs]uint32
	for i := range lastRegWriter {
		lastRegWriter[i] = NoDep
	}
	lastStore := &storeIndex{pages: make(map[uint64]*[storeIndexPageWords]uint32)}

	var n uint64
	for limit <= 0 || n < limit {
		d, ok := e.Step()
		if !ok {
			break
		}
		n++
		idx := uint32(len(tr.Records))
		rec := refRecord{
			PC: d.PC, Addr: d.Addr, Taken: d.Taken, Inst: d.Inst,
			RegDep1: NoDep, RegDep2: NoDep, MemDep: NoDep,
		}
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

// refCaptureImage runs refCapture over a fresh emulator of img, set up the
// way sim.CaptureTrace sets up its own.
func refCaptureImage(img *sim.Image, limit uint64) *refTrace {
	em := emu.New(img.Prog, img.Mem)
	for r, v := range img.Regs {
		em.SetReg(r, v)
	}
	return refCapture(em, limit)
}

// narrow drops what the slicer does not read: the trace RefAnalyze slices.
func (t *refTrace) narrow() *crisp.RefTrace {
	out := &crisp.RefTrace{Records: make([]trace.Record, len(t.Records))}
	for i, r := range t.Records {
		out.Records[i] = trace.Record{PC: uint32(r.PC), RegDep1: r.RegDep1, RegDep2: r.RegDep2, MemDep: r.MemDep}
	}
	return out
}

// sameRecords reports, as an error, the first record of tr whose PC or
// producer links differ from ref's; memDeps counts ref's store producers.
func sameRecords(t *testing.T, name string, tr *trace.Trace, ref *refTrace) (memDeps int) {
	t.Helper()
	if tr.Len() != len(ref.Records) {
		t.Errorf("%s: %d records, oracle %d", name, tr.Len(), len(ref.Records))
		return 0
	}
	for i, r := range ref.Records {
		got := tr.Record(i)
		if int(got.PC) != r.PC || got.RegDep1 != r.RegDep1 || got.RegDep2 != r.RegDep2 || got.MemDep != r.MemDep {
			t.Errorf("%s: record %d = %+v, oracle PC %d deps %d/%d/%d",
				name, i, got, r.PC, r.RegDep1, r.RegDep2, r.MemDep)
			return memDeps
		}
		if r.MemDep != NoDep {
			memDeps++
		}
	}
	return memDeps
}

// TestCaptureMatchesOracle: on every kernel's train input the capture
// derives the PC and producer links the 40-byte one recorded.
func TestCaptureMatchesOracle(t *testing.T) {
	const insts = 200_000
	for _, w := range workload.All() {
		tr := sim.CaptureTrace(w.Build(workload.Train), insts)
		sameRecords(t, w.Name, tr, refCaptureImage(w.Build(workload.Train), insts))
	}
}

// TestRandomCaptureMatchesOracle: on random kernels that loop long enough
// to span dozens of the trace's 256-record blocks, with registers written
// once before the loop and stores the loop's loads read back, every record
// the capture derives equals the 40-byte capture's.
func TestRandomCaptureMatchesOracle(t *testing.T) {
	var records, memDeps int
	for seed := int64(0); seed < 200; seed++ {
		// A capture writes its kernel's memory: each gets its own.
		p, mem, _ := crisp.RandomKernel(seed, 1000)
		tr := trace.Capture(emu.New(p, mem), 0)
		p, mem, _ = crisp.RandomKernel(seed, 1000)
		memDeps += sameRecords(t, fmt.Sprintf("seed %d", seed), tr, refCapture(emu.New(p, mem), 0))
		records += tr.Len()
	}
	t.Logf("%d records, %d with a store producer", records, memDeps)
	if memDeps == 0 {
		t.Error("no load read a traced store: the side table went unchecked")
	}
}

// boundaryKernel is a root load in a 20-iteration inner loop whose address
// comes from an outer-loop add: the add runs exactly 1/20th as often as the
// root, the edge of the cold-ancestor filter (Section 4.1), which no
// kernel's train input reaches at the budgets below. Its profile makes the
// root delinquent.
func boundaryKernel() (*sim.Image, *core.Result) {
	b := program.NewBuilder("boundary")
	b.MovI(isa.R(20), 0x10000)
	b.MovI(isa.R(9), 0)
	b.Label("outer")
	b.AddI(isa.R(20), isa.R(20), 64) // the ancestor at the edge
	b.MovI(isa.R(10), 0)
	b.Label("inner")
	root := b.PC()
	b.Load(isa.R(1), isa.R(20), 0)
	b.AddI(isa.R(10), isa.R(10), 1)
	b.MovI(isa.R(11), 20)
	b.Blt(isa.R(10), isa.R(11), "inner")
	b.AddI(isa.R(9), isa.R(9), 1)
	b.MovI(isa.R(8), 30)
	b.Blt(isa.R(9), isa.R(8), "outer")
	b.Halt()
	prof := &core.Result{
		Loads: map[int]*core.LoadProf{root: {
			Count: 600, LLCMiss: 500, L1Miss: 500, MLPSum: 500, TotalLat: 600 * 50, HeadStall: 600 * 60,
		}},
		Branches: map[int]*core.BranchProf{},
	}
	return &sim.Image{Prog: b.MustBuild(), Mem: emu.NewMemory()}, prof
}

// TestAnalyzeMatchesOracle: on every kernel, train budget and figure
// option set, and on boundaryKernel, Analyze and MeasureFootprint over the
// trace give exactly what the predecessor slicer and the predecessor
// capture's counts gave.
func TestAnalyzeMatchesOracle(t *testing.T) {
	sets := figureOptions()
	var sliced int
	check := func(name string, insts uint64, prof *core.Result, build func() *sim.Image) {
		t.Helper()
		img := build()
		tr := sim.CaptureTrace(img, insts)
		ref := refCaptureImage(build(), insts).narrow()
		for set, opts := range sets {
			got := crisp.Analyze(prof, tr, img.Prog, opts)
			want := crisp.RefAnalyze(prof, ref, img.Prog, opts)
			sliced += len(want.Slices)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d, %s: Analyze = %+v, oracle %+v", name, insts, set, got, want)
				continue
			}
			gotFP := crisp.MeasureFootprint(img.Prog, tr, got.CriticalPCs)
			wantFP := crisp.RefMeasureFootprint(img.Prog, ref, want.CriticalPCs)
			if gotFP != wantFP {
				t.Errorf("%s at %d, %s: footprint = %+v, oracle %+v", name, insts, set, gotFP, wantFP)
			}
		}
	}
	for _, insts := range []uint64{40_000, 200_000} {
		for _, w := range workload.All() {
			cfg, err := sim.RunSpec{Workload: w.Name, Input: sim.InputTrain, Insts: insts}.Config()
			if err != nil {
				t.Fatal(err)
			}
			prof := sim.Run(w.Build(workload.Train), cfg)
			check(w.Name, insts, prof, func() *sim.Image { return w.Build(workload.Train) })
		}
	}
	_, prof := boundaryKernel()
	check("boundary", 0, prof, func() *sim.Image { img, _ := boundaryKernel(); return img })
	if sliced == 0 {
		t.Error("no analysis extracted a slice: the comparison proves nothing")
	}
}
