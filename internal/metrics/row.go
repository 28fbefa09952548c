package metrics

import (
	"errors"
	"fmt"
	"strconv"
)

// The statistic rows of a result — Hist here, core.LoadProf and
// core.BranchProf through the same two functions — encode as one flat
// JSON array of unsigned decimals. A result is read many times more often
// than it is simulated, and an array of integers is what a reader parses
// fastest: no field names to match, no reflection, no zero buckets.
// There is one shape: the decoders accept nothing else.

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

// ParseRow parses data, which must be exactly one JSON array of unsigned
// decimal integers as AppendRow writes it — no sign, fraction, exponent,
// leading zero, space, string, nested value or value past 2⁶⁴−1, and
// nothing after the bracket — into dst, and returns how many it holds. A
// row longer than dst is an error, so a caller's stack buffer bounds what
// hostile input can make it allocate: nothing.
func ParseRow(data []byte, dst []uint64) (int, error) {
	end := len(data) - 1
	if end < 1 || data[0] != '[' || data[end] != ']' {
		return 0, errNotRow
	}
	n := 0
	for i := 1; ; i++ { // i is at the first byte of an element
		start := i
		var v uint64
		for ; data[i]-'0' <= 9; i++ { // stops at the closing bracket at the latest
			d := uint64(data[i] - '0')
			if v > (^uint64(0)-d)/10 {
				return 0, fmt.Errorf("metrics: row element %d overflows uint64", n)
			}
			v = v*10 + d
		}
		if i == start || (data[start] == '0' && i-start > 1) {
			return 0, errNotRow
		}
		if n == len(dst) {
			return 0, fmt.Errorf("metrics: row longer than %d elements", len(dst))
		}
		dst[n] = v
		n++
		if i == end {
			return n, nil
		}
		if data[i] != ',' {
			return 0, errNotRow
		}
	}
}

var errNotRow = errors.New("metrics: not a row of unsigned decimals")

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
	got := Hist{Sum: row[0]}
	next := uint64(0) // the lowest bucket the next pair may name
	for i := 1; i < len(row); i += 2 {
		b, c := row[i], row[i+1]
		if b < next || b >= HistBuckets || c == 0 {
			return fmt.Errorf("metrics: hist row pair (%d, %d) out of order, out of range or empty", b, c)
		}
		got.Counts[b] = c
		next = b + 1
	}
	*h = got
	return nil
}

// MarshalJSON encodes the histogram as its row,
// [sum, bucket, count, bucket, count, …].
func (h Hist) MarshalJSON() ([]byte, error) {
	var buf [HistRowMax]uint64
	return AppendRow(make([]byte, 0, 64), h.AppendRow(buf[:0])), nil
}

// UnmarshalJSON decodes the row written by MarshalJSON and nothing else;
// on an error h is left zero.
func (h *Hist) UnmarshalJSON(data []byte) error {
	*h = Hist{}
	var buf [HistRowMax]uint64
	n, err := ParseRow(data, buf[:])
	if err != nil {
		return err
	}
	return h.SetRow(buf[:n])
}
