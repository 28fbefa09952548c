package cache

import "testing"

// Layer benchmarks of the memory hierarchy on the Table 1 geometry. They
// use only the exported surface, so the file also builds against an older
// internal/cache for a parent → change comparison:
//
//	go test -run '^$' -bench 'Cache|MSHR|HierarchyClone' -benchmem ./internal/cache

var (
	sinkU64 uint64
	sinkInt int
)

func BenchmarkCacheAccess(b *testing.B) {
	// Each case is an address stride, a span the addresses wrap in (0 =
	// never: every line is new) and the cycles between accesses.
	for _, c := range []struct {
		name         string
		stride, span uint64
		gap          uint64
	}{
		{"l1hit", 64, 16 << 10, 4},     // 16 KiB fits the 32 KiB L1D
		{"llc_hit", 64, 256 << 10, 60}, // thrashes L1D, fits the 1 MiB LLC
		{"dram_miss", 64, 0, 400},      // one miss in flight: pointer chasing
		{"mshr_full", 64, 0, 1},        // misses arrive faster than they drain
	} {
		b.Run(c.name, func(b *testing.B) {
			h := NewHierarchy(DefaultHierConfig())
			addr, cycle := uint64(0), uint64(0)
			next := func() {
				addr += c.stride
				if c.span != 0 && addr >= c.span {
					addr = 0
				}
				cycle += c.gap
			}
			for i := uint64(0); i < 2*c.span/c.stride; i++ { // two warm-up laps
				h.L1D.AccessPC(1, addr, false, cycle)
				next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, _ := h.L1D.AccessPC(1, addr, i&7 == 0, cycle)
				sinkU64 += done
				next()
			}
		})
	}
}

// BenchmarkCacheWarm is functional warming's inner call: a tags-only touch
// of L1D that falls through to the LLC, over a 4 MiB footprint in a
// scrambled order (about half the LLC touches miss).
func BenchmarkCacheWarm(b *testing.B) {
	h := NewHierarchy(DefaultHierConfig())
	x := uint64(1)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 40 % (4 << 20)
	}
	for i := 0; i < 200_000; i++ {
		h.WarmData(next(), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WarmData(next(), i&3 == 0)
	}
}

// BenchmarkCacheWarmLocal is the same call over the locality the sweep apps'
// warm streams have (DESIGN.md, "What a warmed access costs": 77–93% of
// their data accesses fall in one of the two lines touched last): two
// word-sequential streams taking turns, and every fifth access a random
// word of a 4 MiB table, as a pointer chaser's next node.
func BenchmarkCacheWarmLocal(b *testing.B) {
	h := NewHierarchy(DefaultHierConfig())
	stream := [2]uint64{8 << 20, 24 << 20}
	x := uint64(1)
	next := func(i int) uint64 {
		if i%5 == 4 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 40 % (4 << 20) &^ 7
		}
		s := &stream[i&1]
		*s += 8
		return *s
	}
	for i := 0; i < 200_000; i++ {
		h.WarmData(next(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.WarmData(next(i), i&3 == 0)
	}
}

// BenchmarkMSHROccupancy is one occupancy sample of a full LLC file (the
// core takes one every 256 cycles).
func BenchmarkMSHROccupancy(b *testing.B) {
	h := NewHierarchy(DefaultHierConfig())
	for i := uint64(0); i < 32; i++ {
		h.LLC.AccessPC(1, i*64, false, i)
	}
	if got := h.LLC.MSHROccupancy(40); got != 32 {
		b.Fatalf("LLC file holds %d in-flight misses, want 32", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += h.LLC.MSHROccupancy(40 + uint64(i&15))
	}
}

// BenchmarkHierarchyClone is a checkpoint restore's cache half: copying a
// warmed template for one detailed window.
func BenchmarkHierarchyClone(b *testing.B) {
	h := NewHierarchy(DefaultHierConfig())
	for a := uint64(0); a < 2<<20; a += 64 {
		h.WarmData(a, a&128 != 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += h.Clone().OutstandingMisses(0)
	}
}
