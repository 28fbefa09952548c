package emu_test

import (
	"testing"

	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/workload"
)

// BenchmarkMemory times page translation, copy-on-write and forking on
// real workload images: ReadWord sweeping 1 MiB of mcf's ring
// sequentially (a translation per page crossing, four times the cache's
// reach) and chasing that ring (a translation per read, almost all
// misses), the first write of a line of streambatch's streams (a COW copy
// per page crossing), and Snapshot of a clean and of a dirty memory. It
// uses exported names only, so the file runs unchanged in an older tree.
//
//	go test -run '^$' -bench BenchmarkMemory -benchmem ./internal/emu
func BenchmarkMemory(b *testing.B) {
	mcf := workload.ByName("mcf").Build(workload.Ref)
	head := uint64(mcf.Regs[isa.R(20)]) // a node of mcf's first ring
	b.Run("read/seq", func(b *testing.B) {
		m := mcf.Mem.Snapshot()
		base := head &^ (1<<20 - 1)
		var sum int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += m.ReadWord(base + uint64(i)*8&(1<<20-1))
		}
		sink = sum
	})
	b.Run("read/random", func(b *testing.B) {
		m := mcf.Mem.Snapshot()
		a := head
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a = uint64(m.ReadWord(a))
		}
		sink = int64(a)
	})
	b.Run("write/cow", func(b *testing.B) {
		img := workload.ByName("streambatch").Build(workload.Ref)
		base := uint64(img.Regs[isa.R(12)]) // streambatch's first stream
		const span = 1 << 22                // its bytes at the ref input
		m := img.Mem.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := uint64(i) * 64 % span
			if off == 0 {
				m = img.Mem.Snapshot() // every line is a first write again
			}
			m.WriteWord(base+off+8, int64(i))
		}
	})
	b.Run("snapshot/clean", func(b *testing.B) {
		m := mcf.Mem.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			forked = m.Snapshot()
		}
	})
	b.Run("snapshot/dirty", func(b *testing.B) {
		m := mcf.Mem.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.WriteWord(head+8, int64(i))
			forked = m.Snapshot()
		}
	})
}

var (
	sink   int64
	forked *emu.Memory
)
