package checkpoint_test

import (
	"context"
	"fmt"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/checkpoint"
	"crisp/internal/emu"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// emulatorOver returns an emulator at the entry of a freshly built image,
// as sim.CaptureCheckpoints sets one up.
func emulatorOver(img *sim.Image) *emu.Emulator {
	em := emu.New(img.Prog, img.Mem)
	for r, v := range img.Regs {
		em.SetReg(r, v)
	}
	return em
}

// BenchmarkCaptureWarm is the capture's warm path alone: 200k instructions
// of mcf streamed into one warmed variant (stride) and into the four a
// sweep's capture warms, no skip phase and a single snapshot. It captures
// through the one-core test helper (CaptureOne, over Capture), which takes
// the variants' kinds; a parent from before capture warmed kinds takes a
// map of fresh prefetchers instead, one from before Capture replaced
// CaptureContext needs the call renamed, and one from before BOPStream
// builds the pair as a prefetch.Composite:
//
//	go test -run '^$' -bench CaptureWarm -benchtime 20x ./internal/checkpoint
func BenchmarkCaptureWarm(b *testing.B) {
	const insts = 200_000
	kinds := []string{"stride", "bop+stream", "ghb", "none"}
	w := workload.ByName("mcf")
	w.Build(workload.Ref) // the pristine image is built once a process: not what is timed
	for _, variants := range []int{1, 4} {
		b.Run(fmt.Sprintf("variants=%d", variants), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img := w.Build(workload.Ref)
				em := emulatorOver(img)
				b.StartTimer()
				set, err := checkpoint.CaptureOne(context.Background(), img.Prog, em, cache.DefaultHierConfig(), 8192, 4, 32, kinds[:variants],
					checkpoint.Params{Warm: insts - 1000, Window: 1000, Count: 1})
				if err != nil {
					b.Fatal(err)
				}
				if set.WarmInsts != insts {
					b.Fatalf("warmed %d instructions, want %d", set.WarmInsts, insts)
				}
			}
			b.ReportMetric(insts*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// BenchmarkRestore is what a sampled window pays before its first cycle:
// Point.Restore of mcf's set under the sweep's schedule (AutoSampling of
// 2M, six points), stride variant — a resumed emulator, the frontend's
// clones, and a hierarchy built from the warmed template. The set is
// captured once, outside the timing. Exported names only, like
// BenchmarkCaptureWarm:
//
//	go test -run '^$' -bench BenchmarkRestore -benchmem ./internal/checkpoint
func BenchmarkRestore(b *testing.B) {
	img := workload.ByName("mcf").Build(workload.Ref)
	set, err := sim.CaptureCheckpointsContext(context.Background(), img, sim.DefaultConfig(), sim.AutoSampling(2_000_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := set.Points[i%len(set.Points)].Restore(img.Prog, sim.PFStride.String())
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Ems) != 1 {
			b.Fatalf("restored %d cores, want 1", len(st.Ems))
		}
	}
}
