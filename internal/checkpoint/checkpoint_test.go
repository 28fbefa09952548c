package checkpoint

import (
	"context"
	"sync"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/prefetch"
	"crisp/internal/program"
)

// chaseProgram loops forever summing a small array: enough loads,
// stores, and taken branches to exercise every warming path.
func chaseProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("chase")
	b.MovI(isa.R(1), 0x4000) // array base
	b.MovI(isa.R(5), 64)     // elements
	b.Label("outer")
	b.MovI(isa.R(2), 0) // i
	b.MovI(isa.R(4), 0) // acc
	b.Label("loop")
	b.LoadIdx(isa.R(3), isa.R(1), isa.R(2), 8, 0)
	b.Add(isa.R(4), isa.R(4), isa.R(3))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.Blt(isa.R(2), isa.R(5), "loop")
	b.Store(isa.R(1), 0, isa.R(4))
	b.Jmp("outer")
	return b.MustBuild()
}

func testCapture(t *testing.T, p Params) (*program.Program, *Set) {
	t.Helper()
	prog := chaseProgram(t)
	mem := emu.NewMemory()
	for i := int64(0); i < 64; i++ {
		mem.WriteWord(uint64(0x4000+8*i), i)
	}
	pfs := map[string]prefetch.Prefetcher{
		"bop":  prefetch.NewBOP(),
		"none": nil,
	}
	set, err := CaptureContext(context.Background(), prog, emu.New(prog, mem), cache.DefaultHierConfig(), 128, 4, 16, pfs, p)
	if err != nil {
		t.Fatal(err)
	}
	return prog, set
}

func TestCaptureSchedule(t *testing.T) {
	p := Params{Skip: 100, Warm: 200, Window: 150, Count: 3}
	_, set := testCapture(t, p)
	if len(set.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(set.Points))
	}
	for i, pt := range set.Points {
		want := uint64(i+1)*(p.Skip+p.Warm) + uint64(i)*p.Window
		if pt.FFInsts != want {
			t.Errorf("point %d FFInsts = %d, want %d", i, pt.FFInsts, want)
		}
		for _, kind := range []string{"bop", "none"} {
			if pt.Variants[kind] == nil {
				t.Errorf("point %d missing variant %q", i, kind)
			}
		}
		if pt.Variants["bop"].PF == nil || pt.Variants["none"].PF != nil {
			t.Errorf("point %d prefetcher templates wrong", i)
		}
	}
	if set.FFInsts != p.Total() {
		t.Errorf("set FFInsts = %d, want %d", set.FFInsts, p.Total())
	}
}

func TestCaptureWarmsState(t *testing.T) {
	prog, set := testCapture(t, Params{Warm: 2000, Window: 100, Count: 1})
	pt := set.Points[0]
	// The array lines the warm phase streamed must be resident in the
	// warmed L1D (probe a clone so the template stays untouched).
	l1d := pt.Variants["none"].Hier.Clone().L1D
	if !l1d.Warm(0x4000, false) || !l1d.Warm(0x4000+8*63, false) {
		t.Errorf("warmed L1D missing array lines")
	}
	// The loop's taken backward branch must be in the warmed BTB.
	var branchPC int
	for i, in := range prog.Insts {
		if in.Op == isa.OpBlt {
			branchPC = i
		}
	}
	if _, ok := pt.BTB.Clone().Lookup(prog.ByteAddr(branchPC)); !ok {
		t.Errorf("warmed BTB missing loop branch")
	}
}

func TestRestoreIsolation(t *testing.T) {
	prog, set := testCapture(t, Params{Warm: 500, Window: 100, Count: 1})
	pt := set.Points[0]
	a, err := pt.Restore(prog, "bop")
	if err != nil {
		t.Fatal(err)
	}
	b, err := pt.Restore(prog, "bop")
	if err != nil {
		t.Fatal(err)
	}
	// Advance one restore (its stores mutate memory); the other must see
	// the checkpointed state, not the mutations.
	a.Em.Run(5000)
	aSum := a.Em.Mem().ReadWord(0x4000)
	if got := b.Em.Mem().ReadWord(0x4000); got == aSum {
		t.Fatalf("restores share memory: both read %d", got)
	}
	b.Em.Run(5000)
	if a.Em.PC() != b.Em.PC() || a.Em.Regs() != b.Em.Regs() {
		t.Errorf("identical restores diverged: pc %d vs %d", a.Em.PC(), b.Em.PC())
	}
}

func TestRestoreUnknownKind(t *testing.T) {
	prog, set := testCapture(t, Params{Warm: 100, Window: 100, Count: 1})
	if _, err := set.Points[0].Restore(prog, "nosuch"); err == nil {
		t.Fatal("Restore of unknown prefetcher kind succeeded")
	}
}

func TestConcurrentRestores(t *testing.T) {
	prog, set := testCapture(t, Params{Warm: 500, Window: 100, Count: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pt := range set.Points {
				for _, kind := range []string{"bop", "none"} {
					st, err := pt.Restore(prog, kind)
					if err != nil {
						t.Error(err)
						return
					}
					st.Em.Run(1000)
					st.Hier.WarmData(0x9000, true)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCaptureHaltingProgram(t *testing.T) {
	b := program.NewBuilder("short")
	b.MovI(isa.R(1), 1)
	b.Halt()
	prog := b.MustBuild()
	set, err := CaptureContext(context.Background(), prog, emu.New(prog, nil), cache.DefaultHierConfig(), 128, 4, 16, nil, Params{Warm: 100, Window: 100, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Points) != 0 {
		t.Errorf("points for halted program = %d, want 0", len(set.Points))
	}
}
