package prefetch

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"crisp/internal/codec"
)

// FuzzDecode feeds arbitrary bytes to the prefetcher decoder, which reads
// every warmed variant of every stored checkpoint set. Three properties,
// as for cache.FuzzDecodeHierarchy and the branch decoders: it never
// panics; it allocates in proportion to its input, whatever table sizes or
// part counts the input declares; and bytes it accepts re-encode to
// exactly themselves — map-backed tables included, whose keys must come
// ascending — so no two inputs decode to one state.
func FuzzDecode(f *testing.F) {
	// One seed a kind with a table, each trained a little, and the nesting
	// the default configuration uses.
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Prefetcher{
		NewStride(8), NewStream(8), NewGHB(16), NewBOP(), &NextLine{Degree: 2},
		&Composite{Parts: []Prefetcher{NewBOP(), NewStream(8)}},
	} {
		for i := 0; i < 200; i++ {
			p.OnAccess(uint64(rng.Intn(5)), 0x10000+uint64(rng.Intn(64))*64+uint64(i)*8, rng.Intn(4) != 0)
		}
		var w codec.Writer
		Encode(&w, p)
		f.Add(w.Bytes())
		f.Add(w.Bytes()[:w.Len()/2])
	}
	f.Add([]byte{tagNil})
	// 64-part composites nested 400 deep, nothing behind them: each level
	// declares a kilobyte of parts in five bytes.
	var deep codec.Writer
	for i := 0; i < 400; i++ {
		deep.U8(tagComposite)
		deep.U32(64)
	}
	f.Add(deep.Bytes())

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r := codec.NewReader(data)
		p, err := Decode(r)
		runtime.ReadMemStats(&ms)
		// A map entry of 16 encoded bytes costs its bucket slot and, in three
		// of the tables, a 32-byte struct behind a pointer; the constant
		// covers an error and the fuzzing engine's own allocations.
		if got, budget := ms.TotalAlloc-before, 128*uint64(len(data))+64<<10; got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		var w codec.Writer
		Encode(&w, p)
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(w.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}
	})
}
