package codec

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I64(-42)
	w.I8(-7)
	w.Int(-123456789)
	w.Uint(987654321)
	w.Bool(true)
	w.Bool(false)
	w.Raw([]byte{1, 2, 3})
	w.Blob([]byte("blob"))
	w.String("hello")

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.I8(); v != -7 {
		t.Errorf("I8 = %d", v)
	}
	if v := r.Int(); v != -123456789 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Uint(); v != 987654321 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Bool(); !v {
		t.Error("Bool = false, want true")
	}
	if v := r.Bool(); v {
		t.Error("Bool = true, want false")
	}
	if v := r.Raw(3); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Raw = %v", v)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte("blob")) {
		t.Errorf("Blob = %q", v)
	}
	if v := r.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean stream decoded with error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

// TestTruncation: reads past the end must stick an error and return
// zeros, never panic — corrupt store entries decode through this path.
func TestTruncation(t *testing.T) {
	var w Writer
	w.U64(7)
	r := NewReader(w.Bytes()[:5])
	if v := r.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if r.Err() == nil {
		t.Fatal("truncated read reported no error")
	}
	// Error sticks: later reads stay zero without panicking.
	if v := r.U32(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if s := r.String(); s != "" {
		t.Errorf("string after error = %q", s)
	}
}

// TestOversizedBlob: a length prefix larger than the remaining buffer is
// an error, not an allocation or a panic.
func TestOversizedBlob(t *testing.T) {
	var w Writer
	w.U32(1 << 30)
	r := NewReader(w.Bytes())
	if b := r.Blob(); b != nil {
		t.Errorf("oversized blob returned %d bytes", len(b))
	}
	if r.Err() == nil {
		t.Fatal("oversized blob reported no error")
	}
}

func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 reported no error")
	}
}

// Grow must keep what is written and make the promised appends free of
// reallocation, which is all it is for.
func TestGrow(t *testing.T) {
	var w Writer
	w.String("head")
	w.Grow(1 << 16)
	before := &w.Bytes()[0]
	w.Raw(make([]byte, 1<<16))
	if &w.Bytes()[0] != before {
		t.Errorf("append within the grown capacity reallocated")
	}
	if r := NewReader(w.Bytes()); r.String() != "head" || r.Remaining() != 1<<16 {
		t.Errorf("Grow lost or misplaced what was already written")
	}
}

// TestUvarint: every value has exactly one accepted encoding — the one
// Writer.Uvarint writes — so a decoder built on it stays canonical.
func TestUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		var w Writer
		w.Uvarint(v)
		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != v || r.Err() != nil || r.Remaining() != 0 {
			t.Errorf("Uvarint(%d) read back %d, err %v, %d bytes left", v, got, r.Err(), r.Remaining())
		}
	}
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"truncated", []byte{0x80}},
		{"padded zero", []byte{0x80, 0x00}},
		{"padded 1", []byte{0x81, 0x80, 0x00}},
		{"overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	} {
		r := NewReader(c.in)
		if v := r.Uvarint(); r.Err() == nil || v != 0 {
			t.Errorf("%s: read %d without error", c.name, v)
		}
	}
}
