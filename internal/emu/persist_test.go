package emu

import (
	"testing"

	"crisp/internal/codec"
)

// TestPageDictSharing: memories forked copy-on-write must intern their
// shared pages once, and decoding must rebuild both the contents and
// the copy-on-write discipline.
func TestPageDictSharing(t *testing.T) {
	m := NewMemory()
	for pg := uint64(0); pg < 8; pg++ {
		m.WriteWord(pg*pageSize, int64(pg)+100)
	}
	snap1 := m.Snapshot()
	m.WriteWord(0, 999) // copies page 0 in m; snap1 keeps the original
	snap2 := m.Snapshot()

	var pw codec.Writer
	dict := NewPageDict()
	snap1.EncodeState(&pw, dict)
	snap2.EncodeState(&pw, dict)
	// 8 pages each, 7 shared: 9 distinct arrays.
	if dict.Len() != 9 {
		t.Fatalf("dict holds %d pages, want 9 (7 shared + 2 versions of page 0)", dict.Len())
	}

	var w codec.Writer
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())

	r := codec.NewReader(w.Bytes())
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecodeMemory(r, dec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeMemory(r, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if got := d1.ReadWord(0); got != 100 {
		t.Errorf("snap1 page 0 = %d, want the pre-write 100", got)
	}
	if got := d2.ReadWord(0); got != 999 {
		t.Errorf("snap2 page 0 = %d, want the post-write 999", got)
	}
	for pg := uint64(1); pg < 8; pg++ {
		if d1.ReadWord(pg*pageSize) != d2.ReadWord(pg*pageSize) {
			t.Errorf("page %d differs between decoded memories", pg)
		}
	}

	// Decoded memories are copy-on-write: writing one must not leak into
	// the other's shared page.
	d1.WriteWord(pageSize, -1)
	if got := d2.ReadWord(pageSize); got != 101 {
		t.Errorf("write to decoded snap1 leaked into snap2: page 1 = %d", got)
	}

	// A decoded memory that has not been written is clean, so Snapshot
	// does not mutate it (restore relies on this for concurrency) and the
	// fork reads identically.
	fork := d2.Snapshot()
	if got := fork.ReadWord(0); got != 999 {
		t.Errorf("fork of decoded memory reads %d, want 999", got)
	}
}

// TestDecodeMemoryCorrupt: out-of-range dict indices and oversized page
// tables must error, not panic or allocate wildly.
func TestDecodeMemoryCorrupt(t *testing.T) {
	var pw codec.Writer
	dict := NewPageDict()
	m := NewMemory()
	m.WriteWord(0, 7)
	m.Snapshot().EncodeState(&pw, dict)

	var w codec.Writer
	dict.EncodePages(&w)
	w.Raw(pw.Bytes())
	enc := append([]byte(nil), w.Bytes()...)

	// Corrupt the dict index of the only page-table entry (last 4 bytes).
	enc[len(enc)-1] = 0xFF
	r := codec.NewReader(enc)
	dec, err := DecodePageDict(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMemory(r, dec); err == nil {
		t.Error("out-of-range dict index decoded without error")
	}

	// A page count far beyond the buffer must fail fast.
	var w2 codec.Writer
	w2.U64(1 << 40)
	if _, err := DecodeMemory(codec.NewReader(w2.Bytes()), dec); err == nil {
		t.Error("oversized page table decoded without error")
	}
}
