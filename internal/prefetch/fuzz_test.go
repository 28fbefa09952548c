package prefetch

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"crisp/internal/codec"
)

// streamBytes is the encoding of a stream prefetcher holding keys, oldest
// first.
func streamBytes(keys ...uint64) []byte {
	var w codec.Writer
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.I64(int64(k) << 6)
		w.I64(1)
		w.I8(2)
	}
	return w.Bytes()
}

// keys returns the keys 1 to n.
func keys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// bopBytes is the encoding of a fresh BOP but for its test index.
func bopBytes(testIdx int) []byte {
	var w codec.Writer
	for range rrEntries + len(bopOffsets) {
		w.U64(0)
	}
	w.Int(testIdx)
	w.Int(0)
	w.I64(1)
	return w.Bytes()
}

// ghbBytes is the encoding of a fresh GHB but for its head and an index
// holding one PC at position pos.
func ghbBytes(head, pos int) []byte {
	var w codec.Writer
	w.Int(head)
	for range ghbEntries {
		w.U64(0)
		w.Int(-1)
		w.Int(-1)
	}
	w.U32(1)
	w.U64(0x40)
	w.Int(pos)
	return w.Bytes()
}

// decodeCases are a full table, a BOP and a GHB, and the things Decode
// refuses of each.
var decodeCases = []struct {
	name, kind string
	enc        []byte
	ok         bool
}{
	{"a full stream table", KindBOPStream, append(bopBytes(0), streamBytes(keys(streamRegions)...)...), true},
	{"one entry more than the capacity", KindBOPStream, append(bopBytes(0), streamBytes(keys(streamRegions+1)...)...), false},
	{"a key twice", KindBOPStream, append(bopBytes(0), streamBytes(7, 5, 7)...), false},
	{"the last test index", KindBOPStream, append(bopBytes(len(bopOffsets)-1), streamBytes()...), true},
	{"a test index past the offsets", KindBOPStream, append(bopBytes(len(bopOffsets)), streamBytes()...), false},
	{"a negative test index", KindBOPStream, append(bopBytes(-1), streamBytes()...), false},
	{"a GHB", KindGHB, ghbBytes(3, 2), true},
	{"a negative GHB head", KindGHB, ghbBytes(-1, 2), false},
	{"a GHB head out of range", KindGHB, ghbBytes(maxGHBHead+1, 2), false},
	{"a negative GHB index position", KindGHB, ghbBytes(3, -2), false},
	{"no prefetcher", KindNone, nil, true},
	{"an unknown kind", "nextline", nil, false},
}

func TestDecodeTableBounds(t *testing.T) {
	for _, c := range decodeCases {
		if _, err := Decode(codec.NewReader(c.enc), c.kind); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted = %v", c.name, err, c.ok)
		}
	}
}

// FuzzDecode feeds a kind and arbitrary bytes to the prefetcher decoder,
// which reads every warmed variant of every stored checkpoint set. Four
// properties, as for cache.FuzzDecodeHierarchy and the branch decoders: it
// never panics, whatever the kind; it allocates no more than its kind's
// constructor does, whatever counts the input declares; bytes it accepts
// re-encode to exactly themselves — a table's entries come oldest first,
// so their order is their LRU state — so no two inputs decode to one state;
// and what it accepts is safe to use: a few hundred accesses neither panic
// nor run away, and leave a state that still round-trips.
func FuzzDecode(f *testing.F) {
	// One seed a kind, each trained a little, half of it, and all of it
	// under the next kind's name.
	rng := rand.New(rand.NewSource(1))
	kinds := []string{KindBOPStream, KindStride, KindGHB, KindNone}
	for i, kind := range kinds {
		p, err := New(kind)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 200 && p != nil; i++ {
			p.OnAccess(uint64(rng.Intn(5)), 0x10000+uint64(rng.Intn(64))*64+uint64(i)*8, rng.Intn(4) != 0)
		}
		b := encodeBytes(p)
		f.Add(kind, b)
		f.Add(kind, b[:len(b)/2])
		f.Add(kinds[(i+1)%len(kinds)], b)
	}
	for _, c := range decodeCases {
		f.Add(c.kind, c.enc)
	}

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r := codec.NewReader(data)
		p, err := Decode(r, kind)
		runtime.ReadMemStats(&ms)
		// GHB's buffer is the largest thing New builds (12 kB); a table
		// grows by append to its capacity. The constant covers those, an
		// error and the fuzzing engine's own allocations.
		if got, budget := ms.TotalAlloc-before, uint64(128<<10); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(encodeBytes(p), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}
		if p == nil {
			return // KindNone: the no-prefetcher configuration
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 300; i++ {
			p.OnAccess(uint64(rng.Intn(40)), uint64(rng.Intn(200))<<9, rng.Intn(3) != 0)
		}
		used := encodeBytes(p)
		q, err := Decode(codec.NewReader(used), kind)
		if err != nil {
			t.Fatalf("the state 300 accesses leave does not decode: %v", err)
		}
		if !bytes.Equal(encodeBytes(q), used) {
			t.Fatalf("the state 300 accesses leave re-encodes differently")
		}
	})
}
