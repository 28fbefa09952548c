package prefetch_test

import (
	"math/rand"
	"testing"

	"crisp/internal/prefetch"
)

// BenchmarkPrefetchOnAccess is one OnAccess of the two table-backed
// prefetchers at the capacities sim.DefaultConfig and PFStride give them
// (64 regions, 256 PCs), over three address shapes: one ascending walk
// (every access but one a page hits the entry the last one did), four
// interleaved walks from four PCs (what a capture's warm phase sees of the
// sweep apps), and random pages and PCs over four times the capacity, so
// that most accesses miss the table and evict. Exported names only: the
// file runs unchanged against the map tables of the parent tree.
func BenchmarkPrefetchOnAccess(b *testing.B) {
	type access struct{ pc, addr uint64 }
	shapes := []struct {
		name string
		gen  func(capacity int) []access
	}{
		{"sequential", func(int) []access {
			out := make([]access, 1<<14)
			for i := range out {
				out[i] = access{0x400100, 0x100000 + uint64(i)*8}
			}
			return out
		}},
		{"interleaved4", func(int) []access {
			out := make([]access, 1<<14)
			for i := range out {
				s := uint64(i % 4)
				out[i] = access{0x400100 + s*4, 0x100000 + s<<24 + uint64(i/4)*(8<<s)}
			}
			return out
		}},
		{"random_overflow", func(capacity int) []access {
			rng := rand.New(rand.NewSource(1))
			out := make([]access, 1<<14)
			for i := range out {
				out[i] = access{0x400000 + uint64(rng.Intn(4*capacity))*4, uint64(rng.Intn(4*capacity))<<12 | uint64(rng.Intn(64))<<6}
			}
			return out
		}},
	}
	for _, pf := range []struct {
		name     string
		capacity int
		new      func() prefetch.Prefetcher
	}{
		{"stream", 64, func() prefetch.Prefetcher { return prefetch.NewStream(64) }},
		{"stride", 256, func() prefetch.Prefetcher { return prefetch.NewStride(256) }},
	} {
		for _, shape := range shapes {
			accs := shape.gen(pf.capacity)
			b.Run(pf.name+"/"+shape.name, func(b *testing.B) {
				p := pf.new()
				for _, a := range accs { // fill the table first
					p.OnAccess(a.pc, a.addr, false)
				}
				b.ReportAllocs()
				b.ResetTimer()
				n := 0
				for i := 0; i < b.N; i++ {
					a := accs[i&(len(accs)-1)]
					n += len(p.OnAccess(a.pc, a.addr, false))
				}
				sink = n
			})
		}
	}
}

var sink int
