package trace

import (
	"slices"
	"strings"
	"testing"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
)

// chainProgram: r2 = r1+1; r3 = r2+1; store r3; load r4; r5 = r4+1.
func chainProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("chain")
	b.MovI(isa.R(1), 10)           // 0
	b.AddI(isa.R(2), isa.R(1), 1)  // 1: dep on 0
	b.AddI(isa.R(3), isa.R(2), 1)  // 2: dep on 1
	b.MovI(isa.R(9), 0x1000)       // 3
	b.Store(isa.R(9), 0, isa.R(3)) // 4: deps on 3 (base) and 2 (value)
	b.Load(isa.R(4), isa.R(9), 0)  // 5: reg dep on 3, mem dep on 4
	b.AddI(isa.R(5), isa.R(4), 1)  // 6: dep on 5
	b.Halt()                       // 7
	return b.MustBuild()
}

func TestCaptureRegisterDeps(t *testing.T) {
	tr := Capture(emu.New(chainProgram(t), nil), 0)
	if tr.Len() != 8 {
		t.Fatalf("trace len = %d, want 8", tr.Len())
	}
	if tr.Record(1).RegDep1 != 0 {
		t.Errorf("rec1 regdep = %d, want 0", tr.Record(1).RegDep1)
	}
	if tr.Record(2).RegDep1 != 1 {
		t.Errorf("rec2 regdep = %d, want 1", tr.Record(2).RegDep1)
	}
	st := tr.Record(4)
	if st.RegDep1 != 3 || st.RegDep2 != 2 {
		t.Errorf("store deps = %d,%d, want 3,2", st.RegDep1, st.RegDep2)
	}
}

func TestCaptureMemoryDeps(t *testing.T) {
	tr := Capture(emu.New(chainProgram(t), nil), 0)
	ld := tr.Record(5)
	if ld.MemDep != 4 {
		t.Errorf("load memdep = %d, want 4 (the store)", ld.MemDep)
	}
	if ld.RegDep1 != 3 {
		t.Errorf("load base regdep = %d, want 3", ld.RegDep1)
	}
}

func TestCaptureNoFalseMemDep(t *testing.T) {
	b := program.NewBuilder("nodep")
	b.MovI(isa.R(1), 0x1000)
	b.MovI(isa.R(2), 7)
	b.Store(isa.R(1), 0, isa.R(2)) // store to 0x1000
	b.Load(isa.R(3), isa.R(1), 64) // load from 0x1040: no overlap
	b.Halt()
	tr := Capture(emu.New(b.MustBuild(), nil), 0)
	if dep := tr.Record(3).MemDep; dep != NoDep {
		t.Errorf("disjoint load has memdep %d, want none", dep)
	}
}

func TestDepsHelperDedupes(t *testing.T) {
	b := program.NewBuilder("dup")
	b.MovI(isa.R(1), 3)
	b.Add(isa.R(2), isa.R(1), isa.R(1)) // both srcs produced by 0
	b.Halt()
	tr := Capture(emu.New(b.MustBuild(), nil), 0)
	deps := tr.Deps(1, nil)
	if len(deps) != 1 || deps[0] != 0 {
		t.Errorf("Deps = %v, want [0]", deps)
	}
}

func TestDepOutsideWindowIsNoDep(t *testing.T) {
	p := chainProgram(t)
	e := emu.New(p, nil)
	e.Run(2) // consume insts 0 and 1 before capture starts
	tr := Capture(e, 0)
	// First captured record is static pc 2 (AddI r3,r2,1); its producer ran
	// before the window.
	if tr.Record(0).PC != 2 {
		t.Fatalf("first captured pc = %d, want 2", tr.Record(0).PC)
	}
	if tr.Record(0).RegDep1 != NoDep {
		t.Errorf("pre-window dep = %d, want NoDep", tr.Record(0).RegDep1)
	}
}

func TestInstancesAndExecCounts(t *testing.T) {
	b := program.NewBuilder("loop")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), 5)
	b.Label("l")
	b.AddI(isa.R(1), isa.R(1), 1) // pc 2
	b.Blt(isa.R(1), isa.R(2), "l")
	b.Jmp("end")
	b.AddI(isa.R(3), isa.R(3), 1) // pc 5: never runs
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	tr := Capture(emu.New(p, nil), 0)
	inst := tr.LastInstances(2, 5)
	if len(inst) != 5 {
		t.Fatalf("LastInstances(2, 5) = %d executions, want 5", len(inst))
	}
	counts := tr.ExecCounts(p.Len())
	if counts[2] != 5 || counts[3] != 5 || counts[0] != 1 || counts[5] != 0 {
		t.Errorf("ExecCounts = %v", counts)
	}
	// Loop-carried dependency: iteration i's AddI depends on iteration i-1's.
	for i := 1; i < len(inst); i++ {
		if tr.Record(int(inst[i])).RegDep1 != inst[i-1] {
			t.Errorf("iteration %d dep = %d, want %d", i, tr.Record(int(inst[i])).RegDep1, inst[i-1])
		}
	}
	// Every PC and bound against a forward scan: the last n hits, in order.
	for pc := 0; pc < p.Len(); pc++ {
		var all []uint32
		for i := range tr.Len() {
			if tr.PC(i) == pc {
				all = append(all, uint32(i))
			}
		}
		for _, n := range []int{0, 1, 3, 5, 100} {
			want := all[len(all)-min(n, len(all)):]
			if got := tr.LastInstances(pc, n); !slices.Equal(got, want) {
				t.Errorf("LastInstances(%d, %d) = %v, want %v", pc, n, got, want)
			}
		}
	}
	if got := tr.LastInstances(5, 12); len(got) != 0 {
		t.Errorf("LastInstances of a PC that never ran = %v, want none", got)
	}
}

func TestCaptureLimit(t *testing.T) {
	b := program.NewBuilder("inf")
	b.Label("l")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Jmp("l")
	p := b.MustBuild()
	tr := Capture(emu.New(p, nil), 100)
	if tr.Len() != 100 {
		t.Errorf("limited capture len = %d, want 100", tr.Len())
	}
}

// TestCaptureRefusesWidePC: a trace keeps 16-bit PCs, so a program that
// runs a PC above MaxPC is refused with the limit named, not truncated.
func TestCaptureRefusesWidePC(t *testing.T) {
	b := program.NewBuilder("wide")
	b.Jmp("end")
	for b.PC() <= MaxPC {
		b.Nop()
	}
	b.Label("end")
	b.Halt() // PC 65536
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "65536") {
			t.Errorf("capture of PC %d: panic %q, want one naming the limit 65536", MaxPC+1, msg)
		}
	}()
	Capture(emu.New(b.MustBuild(), nil), 0)
}
