package checkpoint_test

import (
	"context"
	"fmt"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/checkpoint"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
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
// sweep's capture warms, no skip phase and a single snapshot. It uses only
// the exported surface, so the file also builds against an older
// internal/checkpoint for a parent → change comparison:
//
//	go test -run '^$' -bench CaptureWarm -benchtime 20x ./internal/checkpoint
func BenchmarkCaptureWarm(b *testing.B) {
	const insts = 200_000
	kinds := []struct {
		name string
		mk   func() prefetch.Prefetcher
	}{
		{"stride", func() prefetch.Prefetcher { return prefetch.NewStride(256) }},
		{"bop+stream", func() prefetch.Prefetcher {
			return &prefetch.Composite{Parts: []prefetch.Prefetcher{prefetch.NewBOP(), prefetch.NewStream(64)}}
		}},
		{"ghb", func() prefetch.Prefetcher { return prefetch.NewGHB(512) }},
		{"none", func() prefetch.Prefetcher { return nil }},
	}
	w := workload.ByName("mcf")
	w.Build(workload.Ref) // the pristine image is built once a process: not what is timed
	for _, variants := range []int{1, 4} {
		b.Run(fmt.Sprintf("variants=%d", variants), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img := w.Build(workload.Ref)
				em := emulatorOver(img)
				pfs := make(map[string]prefetch.Prefetcher, variants)
				for _, k := range kinds[:variants] {
					pfs[k.name] = k.mk()
				}
				b.StartTimer()
				set, err := checkpoint.CaptureContext(context.Background(), img.Prog, em, cache.DefaultHierConfig(), 8192, 4, 32, pfs,
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
