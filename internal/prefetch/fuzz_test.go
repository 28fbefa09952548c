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

// pairBytes is the pair's encoding with the given parts in its place.
func pairBytes(parts ...Prefetcher) []byte {
	var w codec.Writer
	w.U8(tagComposite)
	w.U32(uint32(len(parts)))
	for _, p := range parts {
		Encode(&w, p)
	}
	return w.Bytes()
}

// pairCases are the pair and what Decode refuses in its place: any part
// count but two, and any parts but a BOP then a Stream.
var pairCases = []struct {
	name string
	enc  []byte
	ok   bool
}{
	{"the pair", pairBytes(NewBOP(), NewStream(8)), true},
	{"one part", pairBytes(NewBOP()), false},
	{"three parts", pairBytes(NewBOP(), NewStream(8), NewStream(8)), false},
	{"parts swapped", pairBytes(NewStream(8), NewBOP()), false},
	{"a GHB part", pairBytes(NewBOP(), NewGHB(16)), false},
	{"a nil part", pairBytes(NewBOP(), nil), false},
	{"a pair as a part", pairBytes(NewBOPStream(), NewStream(8)), false},
}

func TestDecodeRejectsNonPairs(t *testing.T) {
	for _, c := range pairCases {
		if _, err := Decode(codec.NewReader(c.enc)); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
	}
}

// TestDecodeReservesNextLineTag: the tag of the removed next-line
// prefetcher decodes to an error, not to some other kind.
func TestDecodeReservesNextLineTag(t *testing.T) {
	var w codec.Writer
	w.U8(tagNextLine)
	w.Int(1)
	if p, err := Decode(codec.NewReader(w.Bytes())); err == nil {
		t.Errorf("the next-line tag decoded to %T", p)
	}
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
	// One seed a kind, each trained a little, the pair the default
	// configuration uses included.
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Prefetcher{
		NewStride(8), NewStream(8), NewGHB(16), NewBOP(),
		&BOPStream{BOP: NewBOP(), Stream: NewStream(8)},
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
	for _, c := range pairCases {
		f.Add(c.enc)
	}
	// 64-part pairs nested 400 deep, nothing behind them: refused at the
	// first part count, before anything nests.
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
