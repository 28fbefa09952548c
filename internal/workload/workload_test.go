package workload

import (
	"crypto/sha256"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"crisp/internal/codec"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"pointerchase", "mcf", "omnetpp", "xalancbmk", "moses", "memcached",
		"gcc", "bwaves", "cactus", "deepsjeng", "fotonik", "lbm", "nab",
		"namd", "perlbench", "xhpcg", "imgdnn",
		"tailchase", "streambatch", // co-location pair (multi-core figures)
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d workloads, want %d: %v", len(All()), len(want), Names())
	}
	for _, name := range want {
		if ByName(name) == nil {
			t.Errorf("workload %q missing", name)
		}
	}
	if ByName("nonexistent") != nil {
		t.Errorf("ByName invented a workload")
	}
}

func TestImagesBuildAndRunFunctionally(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, v := range []Variant{Train, Ref} {
				img := w.Build(v)
				if err := img.Prog.Validate(); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, v, err)
				}
				em := emu.New(img.Prog, img.Mem)
				for r, val := range img.Regs {
					em.SetReg(r, val)
				}
				if n := em.Run(20000); n < 20000 && !em.Done() {
					t.Fatalf("%s/%s: functional run stopped at %d insts", w.Name, v, n)
				}
			}
		})
	}
}

func TestTrainAndRefShareProgram(t *testing.T) {
	for _, w := range All() {
		tr := w.Build(Train)
		rf := w.Build(Ref)
		if tr.Prog.Len() != rf.Prog.Len() {
			t.Errorf("%s: train prog %d insts, ref %d — tags would not transfer",
				w.Name, tr.Prog.Len(), rf.Prog.Len())
			continue
		}
		for pc := range tr.Prog.Insts {
			if tr.Prog.Insts[pc] != rf.Prog.Insts[pc] {
				t.Errorf("%s: pc %d differs between variants", w.Name, pc)
				break
			}
		}
	}
}

// TestBuildPanicIsSticky: a kernel constructor that panics must panic on
// every Build of that variant, never hand a later caller a nil pristine
// image to dereference.
func TestBuildPanicIsSticky(t *testing.T) {
	w := &Workload{Name: "broken", build: func(Variant) *sim.Image { panic("kernel bug") }}
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if r := recover(); r != "kernel bug" {
					t.Errorf("Build #%d recovered %v, want the constructor's panic", i, r)
				}
			}()
			w.Build(Ref)
			t.Errorf("Build #%d returned", i)
		}()
	}
}

// pristineHash digests the memoised image's pages through the checkpoint
// page codec (page numbers in order, then contents).
func pristineHash(w *Workload, v Variant) [sha256.Size]byte {
	var pw, pages codec.Writer
	dict := emu.NewPageDict()
	w.pristine[v]().Mem.EncodeState(&pw, dict, nil)
	dict.EncodePages(&pages)
	h := sha256.New()
	h.Write(pw.Bytes())
	h.Write(pages.Bytes())
	return [sha256.Size]byte(h.Sum(nil))
}

// TestBuildForksAreIsolated: images handed out by the memoised Build run
// exactly like images from the kernel constructor, concurrently, and no
// run writes through to the pristine image the next Build forks.
func TestBuildForksAreIsolated(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = 20_000
	run := func(img *sim.Image) *core.Result {
		r := sim.Run(img, cfg)
		r.HostNS, r.HostAllocs = 0, 0
		return r
	}
	type image struct {
		w *Workload
		v Variant
	}
	want := map[image]*core.Result{}
	before := map[image][sha256.Size]byte{}
	for _, w := range All() {
		for _, v := range []Variant{Train, Ref} {
			k := image{w, v}
			want[k] = run(w.build(v))
			w.Build(v)
			before[k] = pristineHash(w, v)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, res := range want {
				if got := run(k.w.Build(k.v)); !reflect.DeepEqual(got, res) {
					t.Errorf("%s/%s: run on a forked image differs from a run on a constructed one", k.w.Name, k.v)
				}
			}
		}()
	}
	wg.Wait()
	for k, h := range before {
		if pristineHash(k.w, k.v) != h {
			t.Errorf("%s/%s: pristine image changed under its forks", k.w.Name, k.v)
		}
	}
}

// TestBuildIsMemoised pins the per-call cost: once a variant's image
// exists, Build allocates an image header and a memory header, not the
// kernel's data (bwaves/ref: 67 MB of pages).
func TestBuildIsMemoised(t *testing.T) {
	w := ByName("bwaves")
	w.Build(Ref)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	img := w.Build(Ref)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Errorf("second Build(Ref) of bwaves allocated %d bytes, want < 64 KiB", got)
	}
	if img.Mem.Pages() == 0 {
		t.Errorf("forked image is empty")
	}
}

// runPair runs OOO baseline and the full CRISP pipeline on a workload with
// a reduced instruction budget.
func runPair(t testing.TB, w *Workload, insts uint64, opts crisp.Options) (base, crispRes *core.Result, pipe *sim.Pipeline) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = insts
	pipe = sim.AnalyzeTrain(w.Build(Train), w.Build(Train), cfg, opts)
	ref := w.Build(Ref)
	base = sim.Run(ref, cfg.WithSched(core.SchedOldestFirst))
	tagged := pipe.Tagged(w.Build(Ref))
	crispRes = sim.Run(tagged, cfg.WithSched(core.SchedCRISP))
	return base, crispRes, pipe
}

// TestCalibrateSuite logs per-workload CRISP gains (run with -v). The
// experiments harness uses larger budgets; this is the fast feedback loop.
func TestCalibrateSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base, cr, pipe := runPair(t, w, 400_000, crisp.DefaultOptions())
			t.Logf("%-12s OOO %.3f CRISP %.3f gain %+5.1f%%  critPCs=%d dynFrac=%.2f loads=%d branches=%d prioIss=%d jump=%.1f brMPKI=%.1f llcMPKI=%.1f",
				w.Name, base.IPC(), cr.IPC(), (cr.IPC()/base.IPC()-1)*100,
				len(pipe.Analysis.CriticalPCs), pipe.Analysis.DynCriticalFraction,
				len(pipe.Analysis.DelinquentLoads), len(pipe.Analysis.HardBranches),
				cr.IssuedCritical, float64(cr.QueueJumpSum)/float64(cr.IssuedCritical+1),
				base.BranchMPKI(), base.LLCMPKI())
		})
	}
}

// TestImageFootprint pins what the images a sweep keeps for its whole life
// cost: resident pages times the page size, per kernel and variant. The
// streaming kernels write one word per 4 KiB, so a 4 KiB page would hold
// each of their words at 512 times its size; bwaves's ref image alone
// would be 67 MB and all 19 × 2 204 MB (16.8 and 110 MB at 1 KiB).
func TestImageFootprint(t *testing.T) {
	const (
		mb          = 1e6
		bwavesLimit = 20 * mb
		totalLimit  = 120 * mb
	)
	total := 0.0
	for _, w := range All() {
		for _, v := range []Variant{Train, Ref} {
			n := float64(w.Build(v).Mem.Pages() * emu.PageSize)
			total += n
			t.Logf("%-12s %-5v %6.1f MB", w.Name, v, n/mb)
			if w.Name == "bwaves" && v == Ref && n > bwavesLimit {
				t.Errorf("bwaves ref image holds %.1f MB, want at most %.0f MB", n/mb, bwavesLimit/mb)
			}
		}
	}
	t.Logf("all images: %.1f MB", total/mb)
	if total > totalLimit {
		t.Errorf("all images hold %.1f MB, want at most %.0f MB", total/mb, totalLimit/mb)
	}
}
