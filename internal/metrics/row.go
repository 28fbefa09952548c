package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The statistic rows of a result — Hist here, core.LoadProf and
// core.BranchProf through the same two functions — encode as one flat
// JSON array of unsigned decimals. A result is read many times more often
// than it is simulated, and an array of integers is what a reader parses
// fastest: no field names to match, no reflection, no zero buckets.
// There is one shape: the decoders accept nothing else. The rest of a
// result, and a crispd reply around it, is read by a Reader.

// HistRowMax is the longest Hist row: the sum, then a (bucket, count)
// pair per bucket.
const HistRowMax = 1 + 2*HistBuckets

// AppendRow appends vals to dst as a JSON array of decimals.
func AppendRow(dst []byte, vals []uint64) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// Reader reads one JSON value as json.Marshal writes it — no whitespace
// but a trailing newline, integers without fraction, exponent or leading
// zero, object keys of plain printable ASCII — straight into typed
// values, one method call per value at the cursor. The first error
// sticks: later calls read nothing, and End returns it with the byte
// offset and object key it occurred at. It allocates only what it returns.
type Reader struct {
	data  []byte
	i     int    // the cursor
	field []byte // the key of the value being read
	err   error
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// End returns the first error, or one for anything after the value but a
// newline.
func (r *Reader) End() error {
	if rest := r.data[r.i:]; len(rest) > 0 && string(rest) != "\n" {
		r.Fail(errors.New("trailing bytes after the value"))
	}
	return r.err
}

// Fail records err at the cursor, unless an error is recorded already.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("json byte %d, field %q: %w", r.i, r.field, err)
	}
}

func (r *Reader) want(what string) { r.Fail(errors.New("want " + what)) }

// accept consumes c if it is the byte at the cursor.
func (r *Reader) accept(c byte) bool {
	if r.err == nil && r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return true
	}
	return false
}

// Null consumes a null if one is at the cursor.
func (r *Reader) Null() bool {
	if r.err != nil || len(r.data)-r.i < 4 || string(r.data[r.i:r.i+4]) != "null" {
		return false
	}
	r.i += 4
	return true
}

// next consumes the comma before another element, or end, the last.
func (r *Reader) next(end byte) bool {
	if r.err == nil && r.i < len(r.data) {
		if c := r.data[r.i]; c == ',' || c == end {
			r.i++
			return c == ','
		}
	}
	r.want("',' or '" + string(end) + "'")
	return false
}

// Object reads an object, calling field with each key in turn; field must
// read that key's value, or Fail.
func (r *Reader) Object(field func(key []byte)) {
	if !r.accept('{') {
		r.want("an object")
		return
	}
	outer := r.field
	for more := !r.accept('}'); more; more = r.next('}') {
		if !r.accept('"') {
			r.want("a key")
			return
		}
		start := r.i
		for r.i < len(r.data) && plain(r.data[r.i]) {
			r.i++
		}
		if r.field = r.data[start:r.i]; !r.accept('"') || !r.accept(':') {
			r.want("a key of plain ASCII and ':'")
			return
		}
		field(r.field)
		r.field = outer
	}
}

// plain reports whether a key may hold c, and a string be copied as is.
func plain(c byte) bool { return c >= ' ' && c <= '~' && c != '"' && c != '\\' }

// Array reads an array, calling elem to read each element.
func (r *Reader) Array(elem func()) {
	if !r.accept('[') {
		r.want("an array")
		return
	}
	for more := !r.accept(']'); more; more = r.next(']') {
		elem()
	}
}

// Row reads a non-empty array of unsigned decimals into dst and returns
// how many it holds, or 0 after an error. A row longer than dst is an
// error, so a caller's stack buffer bounds what hostile input can make it
// allocate: nothing.
func (r *Reader) Row(dst []uint64) int {
	if !r.accept('[') {
		r.want("a row")
		return 0
	}
	n := 0
	for more := true; more; more = r.next(']') {
		if n == len(dst) {
			r.Fail(fmt.Errorf("row longer than %d elements", len(dst)))
			return 0
		}
		dst[n] = r.Uint()
		n++
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Uint reads an unsigned decimal integer: at least one digit, no leading
// zero, nothing past 2⁶⁴−1.
func (r *Reader) Uint() uint64 {
	const cutoff = math.MaxUint64 / 10
	data, start, i := r.data, r.i, r.i
	var v uint64
	for ; i < len(data) && data[i]-'0' <= 9 && r.err == nil; i++ {
		d := uint64(data[i] - '0')
		if v >= cutoff && (v > cutoff || d > math.MaxUint64%10) {
			break
		}
		v = v*10 + d
	}
	if r.i = i; i == start || i < len(data) && data[i]-'0' <= 9 || data[start] == '0' && i > start+1 {
		r.want("an unsigned integer")
		return 0
	}
	return v
}

// Int reads a decimal integer in int64's range.
func (r *Reader) Int() int64 {
	neg := r.accept('-')
	v := r.Uint()
	if v > math.MaxInt64+1 || v == math.MaxInt64+1 && !neg {
		r.want("an integer in int64's range")
	}
	if neg {
		return -int64(v)
	}
	return int64(v)
}

// IntKey reads key, an object key, as a decimal integer: how json.Marshal
// writes the keys of a map[int]T.
func (r *Reader) IntKey(key []byte) int {
	k := NewReader(key)
	v := k.Int()
	if k.End() != nil || int64(int(v)) != v {
		r.want("an integer key")
	}
	return int(v)
}

// Float reads a JSON number as a float64.
func (r *Reader) Float() float64 {
	start := r.i
	r.accept('-')
	ok := r.accept('0') || r.digits() > 0
	if r.accept('.') {
		ok = ok && r.digits() > 0
	}
	if r.accept('e') || r.accept('E') {
		_ = r.accept('+') || r.accept('-')
		ok = ok && r.digits() > 0
	}
	f, err := strconv.ParseFloat(string(r.data[start:r.i]), 64)
	if !ok || err != nil {
		r.want("a number in float64's range")
		return 0
	}
	return f
}

// digits steps over a run of decimal digits and returns its length.
func (r *Reader) digits() int {
	start := r.i
	for r.i < len(r.data) && r.data[r.i]-'0' <= 9 {
		r.i++
	}
	return r.i - start
}

// String reads a string. One of plain printable ASCII is copied as is;
// any other goes to json.Unmarshal, so escapes and invalid UTF-8 decode
// exactly as encoding/json decodes them.
func (r *Reader) String() string {
	tok := r.Skip()
	if len(tok) < 2 || tok[0] != '"' {
		r.want("a string")
		return ""
	}
	for _, c := range tok[1 : len(tok)-1] {
		if !plain(c) {
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				r.Fail(err)
			}
			return s
		}
	}
	return string(tok[1 : len(tok)-1])
}

// Skip steps over a value and returns its bytes for another decoder to
// check: Skip itself checks only that brackets pair up and strings end.
func (r *Reader) Skip() []byte {
	data, start, depth, str := r.data, r.i, 0, false
	i := start
scan:
	for ; r.err == nil && i < len(data); i++ {
		if depth > 0 && !str { // the bytes between a composite's strings and brackets
			for i < len(data) && !structural[data[i]] {
				i++
			}
			if i == len(data) {
				break
			}
		}
		switch c := data[i]; {
		case str:
			str = c != '"'
			if c == '\\' {
				i++
			}
		case c == '"':
			str = true
		case c == '{' || c == '[':
			depth++
		case depth == 0 && (c == ',' || c == '}' || c == ']' || c == '\n'):
			break scan
		case c == '}' || c == ']':
			depth--
		}
	}
	if r.i = min(i, len(data)); str || depth > 0 || r.i == start {
		r.want("a whole value")
		return nil
	}
	return data[start:r.i]
}

// structural marks the bytes Skip looks at inside an object or array.
var structural = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true}

// Hist reads a histogram row into h (see SetRow).
func (r *Reader) Hist(h *Hist) {
	var buf [HistRowMax]uint64
	n := r.Row(buf[:])
	if err := h.SetRow(buf[:n]); err != nil {
		r.Fail(err)
	}
}

// Hists reads the run-level histograms by their JSON keys into h.
func (r *Reader) Hists(h *Hists) {
	r.Object(func(key []byte) {
		for _, f := range [...]struct {
			key string
			h   *Hist
		}{{"load_lat", &h.LoadLat}, {"dram_lat", &h.DRAMLat}, {"mlp_at_miss", &h.MLPAtMiss}, {"occ_rob", &h.OccROB},
			{"occ_rs", &h.OccRS}, {"occ_lq", &h.OccLQ}, {"occ_sq", &h.OccSQ}, {"occ_mshr", &h.OccMSHR}} {
			if string(key) == f.key {
				r.Hist(f.h)
				return
			}
		}
		r.want("a histogram name")
	})
}

// AppendRow appends h's row to dst: the sum, then (bucket, count) for
// every non-zero bucket in ascending order.
func (h *Hist) AppendRow(dst []uint64) []uint64 {
	dst = append(dst, h.Sum)
	for i, c := range h.Counts {
		if c != 0 {
			dst = append(dst, uint64(i), c)
		}
	}
	return dst
}

// SetRow replaces h by the histogram row describes, or by the empty one
// when it returns an error. Only the row AppendRow writes for some
// histogram is accepted: an odd length, buckets below HistBuckets and
// strictly ascending, no listed count of zero.
func (h *Hist) SetRow(row []uint64) error {
	*h = Hist{}
	if len(row)%2 == 0 {
		return fmt.Errorf("metrics: hist row of %d elements, want a sum and (bucket, count) pairs", len(row))
	}
	h.Sum = row[0]
	next := uint64(0) // the lowest bucket the next pair may name
	for i := 1; i < len(row); i += 2 {
		b, c := row[i], row[i+1]
		if b < next || b >= HistBuckets || c == 0 {
			*h = Hist{}
			return fmt.Errorf("metrics: hist row pair (%d, %d) out of order, out of range or empty", b, c)
		}
		h.Counts[b] = c
		next = b + 1
	}
	return nil
}

// MarshalJSON encodes the histogram as its row,
// [sum, bucket, count, bucket, count, …].
func (h Hist) MarshalJSON() ([]byte, error) {
	var buf [HistRowMax]uint64
	return AppendRow(make([]byte, 0, 64), h.AppendRow(buf[:0])), nil
}

// UnmarshalJSON decodes the row written by MarshalJSON and nothing else;
// on an error h is left zero. It is for a Hist held by a value decoded
// with encoding/json, such as the -metrics record.
func (h *Hist) UnmarshalJSON(data []byte) error {
	r := NewReader(data)
	if r.Hist(h); r.End() != nil {
		*h = Hist{}
	}
	return r.err
}
