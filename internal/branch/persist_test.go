package branch

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"crisp/internal/codec"
)

// refEncodeState is BTB.EncodeState as it stood in codec version 1,
// verbatim: 18 bytes an entry, valid or not. It is the reference for what
// a BTB's state is; the dense form must carry every state through
// unchanged by this account.
func (b *BTB) refEncodeState(w *codec.Writer) {
	w.Int(b.sets)
	w.Int(b.ways)
	w.U32(uint32(len(b.tags)))
	for i := range b.tags {
		w.U64(b.tags[i])
		w.Bool(b.valid[i])
		w.Int(b.targets[i])
		w.U8(b.lru[i])
	}
	w.U64(b.hits)
	w.U64(b.miss)
}

func refBTBBytes(b *BTB) []byte {
	var w codec.Writer
	b.refEncodeState(&w)
	return w.Bytes()
}

// warmedBTB returns a 64-entry BTB a short branch stream has partly
// filled: full sets, sets with aged invalid ways, untouched sets.
func warmedBTB() *BTB {
	b := NewBTB(64, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		pc := uint64(rng.Intn(40)) * 4
		if _, ok := b.Lookup(pc); !ok {
			b.Insert(pc, rng.Intn(1000))
		}
	}
	return b
}

// TestBTBEncodeMatchesReference: encoding then decoding a BTB changes
// nothing the version-1 encoder can see — including the ages of invalid
// ways and a valid entry that is all zero — the dense bytes re-encode to
// themselves, and an 8K-entry BTB holding a few dozen branches takes a
// byte an entry.
func TestBTBEncodeMatchesReference(t *testing.T) {
	zeroes := NewBTB(8, 2)
	zeroes.Insert(0, 0) // a valid entry whose every field is zero, an aged invalid way beside it
	negative := NewBTB(8, 2)
	negative.Insert(12, -1)
	for name, b := range map[string]*BTB{"warmed": warmedBTB(), "fresh": NewBTB(64, 4), "zero entry": zeroes, "negative target": negative} {
		var w codec.Writer
		b.EncodeState(&w)
		r := codec.NewReader(w.Bytes())
		back, err := DecodeBTB(r)
		if err != nil || r.Remaining() != 0 {
			t.Fatalf("%s: DecodeBTB: %v, %d bytes left", name, err, r.Remaining())
		}
		if !bytes.Equal(refBTBBytes(back), refBTBBytes(b)) {
			t.Errorf("%s: encode then decode changed the state", name)
		}
		var again codec.Writer
		back.EncodeState(&again)
		if !bytes.Equal(again.Bytes(), w.Bytes()) {
			t.Errorf("%s: decode then encode changed the bytes", name)
		}
	}

	big := NewBTB(8192, 4)
	for pc := uint64(0); pc < 40; pc++ {
		big.Insert(0x400000+pc*36, int(pc))
	}
	var w codec.Writer
	big.EncodeState(&w)
	if max := 8192 + 40*3*8 + 64; w.Len() > max {
		t.Errorf("8K-entry BTB with 40 branches encodes to %d bytes, want at most %d (version 1: %d)", w.Len(), max, len(refBTBBytes(big)))
	}
}

// TestDecodeBTBRejects: an entry must decode from exactly one byte string,
// and a geometry from bytes that can fill it.
func TestDecodeBTBRejects(t *testing.T) {
	b := NewBTB(64, 4)
	b.Insert(0, 0)
	b.Insert(5, 7)
	var w codec.Writer
	b.EncodeState(&w)
	good := w.Bytes()
	const first = 8 + 8 + 4 // entry 0 sits behind sets, ways and the count
	if good[first] != btbValid || good[first+1] != 0 || good[first+2] != 0 || good[first+3] != 0 {
		t.Fatalf("entry 0 is not the all-zero valid entry: % x", good[first:first+4])
	}
	edit := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	for _, c := range []struct {
		name, want string
		in         []byte
	}{
		{"invalid entry that is all zero", "present but all zero", edit(func(b []byte) { b[first] = btbInvalid })},
		{"unknown head byte", "head byte", edit(func(b []byte) { b[first] = 3 })},
		{"padded varint tag", "varint", edit(func(b []byte) { b[first+1] = 0x80 })},
		{"ways do not divide the entries", "geometry", edit(func(b []byte) { b[8] = 3 })},
		{"sets times ways is not the count", "geometry", edit(func(b []byte) { b[0] = 17 })},
		{"zero ways", "geometry", edit(func(b []byte) { b[8] = 0 })},
		{"more entries than bytes", "geometry", edit(func(b []byte) { b[1], b[18] = 1, 4 })}, // 272 sets, 1088 entries
		{"truncated", "truncated", good[:len(good)-3]},
	} {
		_, err := DecodeBTB(codec.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestDecodeBoundsAllocation: a size larger than the bytes behind it is
// refused before the table is allocated, for every table these decoders
// size from their input.
func TestDecodeBoundsAllocation(t *testing.T) {
	var ras, comp codec.Writer
	ras.U32(1 << 24)
	NewTAGE(4, 4).EncodeState(&comp)
	// tage decodes the 4/4 predictor's state behind other sizes.
	tage := func(logBase, logTagged byte) func() error {
		return func() error {
			_, err := DecodeTAGE(codec.NewReader(append([]byte{logBase, logTagged}, comp.Bytes()[2:]...)))
			return err
		}
	}
	for name, f := range map[string]func() error{
		"TAGE base":      tage(24, 4),
		"TAGE component": tage(4, 20),
		"TAGE past 2^24": tage(4, 64),
		"TAGE no tags":   tage(4, 0),
		"RAS":            func() error { _, err := DecodeRAS(codec.NewReader(ras.Bytes())); return err },
	} {
		if err := f(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: error %v, want an out-of-range size", name, err)
		}
	}
	if _, err := DecodeTAGE(codec.NewReader(comp.Bytes())); err != nil {
		t.Errorf("unmodified TAGE: %v", err)
	}
}
