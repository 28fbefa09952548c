// Package codec implements the little-endian binary encoding primitives
// shared by the persistent-state serializers (checkpoint sets, warmed
// cache and predictor templates). A Writer appends fixed-width values to
// a growing buffer; a Reader consumes them with a sticky error, so
// decoders can run a whole field list and check failure once at the end.
// Truncated or over-long input is an error, never a panic: store entries
// may be corrupt on disk and must decode to a clean miss.
package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates an encoded byte stream. The zero value is ready to
// use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded stream. The slice aliases the writer's
// buffer and is valid until the next append.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for n more bytes, so that appending them does not
// reallocate. An encoder that knows its output size calls it once up
// front instead of paying append's doubling copies.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Uvarint appends v in the base-128 varint form of encoding/binary: one
// byte for values below 128, at most ten. The dense table encoders use it
// for fields that are small almost everywhere.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I8 appends one signed byte.
func (w *Writer) I8(v int8) { w.U8(uint8(v)) }

// Int appends a Go int as a 64-bit value, so encodings are identical
// across architectures.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Uint appends a Go uint as a 64-bit value.
func (w *Writer) Uint(v uint) { w.U64(uint64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b verbatim, without a length prefix. The reader must know
// the length from structure.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends b with a u32 length prefix.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String appends s with a u32 length prefix.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes a stream produced by Writer. The first decode failure
// (truncation, oversized length prefix) sticks: every later read returns
// a zero value, and Err reports the failure. This lets decoders read a
// whole structure unconditionally and validate once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes (0 once failed).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

// take returns the next n bytes, or nil after recording truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("truncated: want %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a base-128 varint, failing on one that overflows 64 bits
// or is longer than its value needs (a trailing zero group): Writer.Uvarint
// writes neither, and a value must have one encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("truncated, overlong or padded varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I8 reads one signed byte.
func (r *Reader) I8() int8 { return int8(r.U8()) }

// Int reads a 64-bit value into a Go int, failing if it does not fit.
func (r *Reader) Int() int {
	v := r.I64()
	n := int(v)
	if int64(n) != v {
		r.fail("int64 %d overflows int", v)
		return 0
	}
	return n
}

// Uint reads a 64-bit value into a Go uint, failing if it does not fit.
func (r *Reader) Uint() uint {
	v := r.U64()
	n := uint(v)
	if uint64(n) != v {
		r.fail("uint64 %d overflows uint", v)
		return 0
	}
	return n
}

// Bool reads one byte as a bool, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte at offset %d", r.off-1)
		return false
	}
}

// Raw reads n bytes without a length prefix. The returned slice aliases
// the reader's buffer.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Blob reads a u32-length-prefixed byte slice. The returned slice
// aliases the reader's buffer; copy it for storage.
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	return r.take(n)
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string { return string(r.Blob()) }
