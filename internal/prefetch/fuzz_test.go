package prefetch

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"crisp/internal/codec"
)

// streamBytes is the encoding of a stream prefetcher of the given capacity
// holding keys, oldest first.
func streamBytes(capacity int, keys ...uint64) []byte {
	var w codec.Writer
	w.U8(tagStream)
	w.Int(capacity)
	w.Int(2)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.I64(int64(k) << 6)
		w.I64(1)
		w.I8(2)
	}
	return w.Bytes()
}

// tableCases are a full table and the four things decodeTable refuses.
var tableCases = []struct {
	name string
	enc  []byte
	ok   bool
}{
	{"full", streamBytes(3, 7, 5, 6), true},
	{"one entry more than the capacity", streamBytes(3, 7, 5, 6, 4), false},
	{"a key twice", streamBytes(3, 7, 5, 7), false},
	{"no capacity", streamBytes(0), false},
	{"a capacity no hint names a slot of", streamBytes(maxTableCap+1, 7), false},
}

func TestDecodeTableBounds(t *testing.T) {
	for _, c := range tableCases {
		if _, err := Decode(codec.NewReader(c.enc)); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the prefetcher decoder, which reads
// every warmed variant of every stored checkpoint set. Four properties,
// as for cache.FuzzDecodeHierarchy and the branch decoders: it never
// panics; it allocates in proportion to its input, whatever capacities,
// table sizes or part counts the input declares; bytes it accepts re-encode
// to exactly themselves — a table's entries come oldest first, so their
// order is their LRU state — so no two inputs decode to one state; and what
// it accepts is safe to use: a few hundred accesses neither panic nor run
// away, and leave a state that still round-trips.
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
	for _, c := range tableCases {
		f.Add(c.enc)
	}
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
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(encodeBytes(p), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}
		if p == nil {
			return // tagNil: the no-prefetcher configuration
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 300; i++ {
			p.OnAccess(uint64(rng.Intn(40)), uint64(rng.Intn(200))<<9, rng.Intn(3) != 0)
		}
		used := encodeBytes(p)
		q, err := Decode(codec.NewReader(used))
		if err != nil {
			t.Fatalf("the state 300 accesses leave does not decode: %v", err)
		}
		if !bytes.Equal(encodeBytes(q), used) {
			t.Fatalf("the state 300 accesses leave re-encodes differently")
		}
	})
}
