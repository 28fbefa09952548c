package branch

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"crisp/internal/codec"
)

// The frontend structures come back from disk inside every stored
// checkpoint set, so their decoders are fuzzed natively, each on its own
// so that mutations land in it and not in the set around it. Three
// properties, as for cache.FuzzDecodeHierarchy: a decoder never panics; it
// allocates in proportion to its input, whatever sizes the input declares;
// and bytes it accepts re-encode to exactly themselves, so no two inputs
// decode to one state. The predictor has a fourth: what its decoder accepts
// is safe to use.

// state is what the three structures have in common.
type state interface{ EncodeState(w *codec.Writer) }

func encoded(s state) []byte {
	var w codec.Writer
	s.EncodeState(&w)
	return w.Bytes()
}

// fuzzDecoder seeds f with the encoding of good, half of it and a copy
// with one bit flipped, and checks the three properties of decode on every
// input; use, if not nil, then exercises what decode accepted.
func fuzzDecoder[T state](f *testing.F, good T, decode func(r *codec.Reader) (T, error), use func(T)) {
	seed := encoded(good)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)*2/3] ^= 1 << 3
	f.Add(flipped)

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, data []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r := codec.NewReader(data)
		got, err := decode(r)
		runtime.ReadMemStats(&ms)
		// An empty BTB entry is one byte and decodes to 18 bytes of arrays;
		// the constant covers the fixed parts, an error and the fuzzing
		// engine's own allocations.
		if got, budget := ms.TotalAlloc-before, 128*uint64(len(data))+64<<10; got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			return
		}
		if consumed := data[:len(data)-r.Remaining()]; !bytes.Equal(encoded(got), consumed) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(consumed))
		}
		if use != nil {
			use(got)
		}
	})
}

func FuzzDecodeTAGE(f *testing.F) {
	bp := NewTAGE(4, 4) // 16-entry tables: a few hundred bytes
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		bp.PredictAndTrain(0x400000+uint64(rng.Intn(9))*4, rng.Intn(3) != 0)
	}
	// History lengths pushHistory cannot wrap with one compare: refused.
	for _, hl := range []int{len(bp.hist), len(bp.hist) + 200, 0, -3} {
		bad := bp.Clone()
		bad.tables[2].histLen = hl
		f.Add(encoded(bad))
	}
	fuzzDecoder(f, bp, DecodeTAGE, func(t *TAGE) {
		for i := 0; i < 300; i++ {
			t.PredictAndTrain(0x400000+uint64(i%11)*4, i%3 != 0)
		}
	})
}

func FuzzDecodeBTB(f *testing.F) {
	fuzzDecoder(f, warmedBTB(), DecodeBTB, func(b *BTB) {
		for i := 0; i < 300; i++ {
			pc := uint64(i%53) * 4
			if _, ok := b.Lookup(pc); !ok {
				b.Insert(pc, i)
			}
		}
	})
}

func FuzzDecodeRAS(f *testing.F) {
	s := NewRAS(8)
	for i := 0; i < 11; i++ { // wraps
		s.Push(100 + i)
	}
	s.Pop()
	fuzzDecoder(f, s, DecodeRAS, func(s *RAS) {
		for i := 0; i < 300; i++ { // deeper than the stack, then drained past empty
			if i%5 < 3 || i > 200 && i%2 == 0 {
				s.Push(i)
			} else {
				s.Pop()
			}
		}
	})
}
