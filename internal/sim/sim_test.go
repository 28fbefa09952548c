package sim

import (
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/ibda"
	"crisp/internal/isa"
	"crisp/internal/program"
)

// chaseImage builds a small pointer-chase image directly (keeping the sim
// tests independent of the workload package).
func chaseImage(nodes int, tagged bool) *Image {
	mem := emu.NewMemory()
	for i := 0; i < nodes; i++ {
		addr := uint64(0x100000 + ((i*7919)%nodes)*64)
		next := uint64(0x100000 + (((i+1)*7919)%nodes)*64)
		mem.WriteWord(addr, int64(next))
		mem.WriteWord(addr+8, int64(i))
	}
	for i := 0; i < 80; i++ {
		mem.WriteWord(uint64(0x400000+i*8), int64(i))
	}
	b := program.NewBuilder("chase")
	b.MovI(isa.R(3), 0x400000)
	b.MovI(isa.R(5), 48)
	b.Label("outer")
	b.MovI(isa.R(4), 0)
	b.Label("inner")
	b.LoadIdx(isa.R(8), isa.R(3), isa.R(4), 8, 0)
	b.LoadIdx(isa.R(9), isa.R(3), isa.R(4), 8, 32)
	b.LoadIdx(isa.R(10), isa.R(3), isa.R(4), 8, 64)
	b.Mul(isa.R(8), isa.R(8), isa.R(2))
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "inner")
	b.Load(isa.R(1), isa.R(1), 0)
	b.Load(isa.R(2), isa.R(1), 8)
	b.Bne(isa.R(1), isa.R(0), "outer")
	b.Halt()
	p := b.MustBuild()
	if tagged {
		p.SetCritical([]int{p.Len() - 4, p.Len() - 3})
	}
	return &Image{Prog: p, Mem: mem, Regs: map[isa.Reg]int64{isa.R(1): 0x100000, isa.R(2): 1}}
}

func cfgN(n uint64) Config {
	cfg := DefaultConfig()
	cfg.Core.MaxInsts = n
	return cfg
}

func TestRunBasic(t *testing.T) {
	res := Run(chaseImage(2000, false), cfgN(50_000))
	if res.Insts != 50_000 {
		t.Fatalf("insts = %d", res.Insts)
	}
	if res.IPC() <= 0 || res.IPC() > 6 {
		t.Fatalf("IPC = %v", res.IPC())
	}
	if res.LLCMPKI() <= 0 {
		t.Errorf("no LLC misses on a chase workload")
	}
}

func TestSchedulerConfigsDiffer(t *testing.T) {
	base := Run(chaseImage(3000, false), cfgN(60_000).WithSched(core.SchedOldestFirst))
	cr := Run(chaseImage(3000, true), cfgN(60_000).WithSched(core.SchedCRISP))
	if cr.IPC() <= base.IPC() {
		t.Errorf("CRISP %.3f not above OOO %.3f on tagged chase", cr.IPC(), base.IPC())
	}
}

func TestPrefetcherKinds(t *testing.T) {
	for _, pf := range []PrefetcherKind{PFBOPStream, PFStride, PFGHB, PFNone} {
		cfg := cfgN(20_000)
		cfg.Prefetcher = pf
		res := Run(chaseImage(1000, false), cfg)
		if res.Insts == 0 {
			t.Errorf("%v: no instructions ran", pf)
		}
	}
	if PFBOPStream.String() != "bop+stream" || PFNone.String() != "none" {
		t.Errorf("prefetcher names wrong")
	}
}

func TestIBDAMarkerWiring(t *testing.T) {
	cfg := cfgN(60_000).WithSched(core.SchedCRISP)
	cfg.IBDA = &ibda.Config{ISTEntries: 1024, ISTWays: 4, DLTEntries: 32}
	res := Run(chaseImage(3000, false), cfg)
	if res.IssuedCritical == 0 {
		t.Errorf("IBDA never produced critical issues")
	}
}

func TestCaptureTraceMatchesBudget(t *testing.T) {
	tr := CaptureTrace(chaseImage(500, false), 10_000)
	if tr.Len() != 10_000 {
		t.Errorf("trace len = %d", tr.Len())
	}
}

func TestAnalyzeTrainPipeline(t *testing.T) {
	pipe := AnalyzeTrain(chaseImage(3000, false), chaseImage(3000, false), cfgN(80_000), crisp.DefaultOptions())
	if len(pipe.Analysis.CriticalPCs) == 0 {
		t.Fatalf("pipeline found nothing on a pointer chase")
	}
	if pipe.Footprint.CriticalStatic != len(pipe.Analysis.CriticalPCs) {
		t.Errorf("footprint static count %d != %d tagged",
			pipe.Footprint.CriticalStatic, len(pipe.Analysis.CriticalPCs))
	}
	img := chaseImage(3000, false)
	tagged := pipe.Tagged(img)
	if len(tagged.Prog.CriticalPCs()) != len(pipe.Analysis.CriticalPCs) {
		t.Errorf("Tagged applied %d PCs", len(tagged.Prog.CriticalPCs()))
	}
	if len(img.Prog.CriticalPCs()) != 0 {
		t.Errorf("Tagged mutated the input image's program")
	}
	// End-to-end: tagged CRISP beats baseline.
	base := Run(chaseImage(3000, false), cfgN(80_000).WithSched(core.SchedOldestFirst))
	cr := Run(pipe.Tagged(chaseImage(3000, false)), cfgN(80_000).WithSched(core.SchedCRISP))
	if cr.IPC() <= base.IPC() {
		t.Errorf("pipeline-tagged CRISP %.3f <= OOO %.3f", cr.IPC(), base.IPC())
	}
}

func TestWithSchedIsACopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg2 := cfg.WithSched(core.SchedCRISP)
	if cfg.Core.Scheduler != core.SchedOldestFirst {
		t.Errorf("WithSched mutated the receiver")
	}
	if cfg2.Core.Scheduler != core.SchedCRISP || cfg2.Core.RSSize != cfg.Core.RSSize {
		t.Errorf("derived config wrong: %+v", cfg2.Core)
	}
}

func TestDescribe(t *testing.T) {
	res := Run(chaseImage(500, false), cfgN(5_000))
	s := Describe("x", res)
	if len(s) == 0 || s[0] != 'x' {
		t.Errorf("Describe = %q", s)
	}
}
