package metrics

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseRowStrict: the shared row parser takes one array of unsigned
// decimals and nothing else. Every rejected body here is either valid
// JSON of another shape or not JSON at all; none may panic or half-fill.
func TestParseRowStrict(t *testing.T) {
	var dst [4]uint64
	for _, ok := range []struct {
		in   string
		want []uint64
	}{
		{`[0]`, []uint64{0}},
		{`[1,20,300]`, []uint64{1, 20, 300}},
		{`[18446744073709551615]`, []uint64{1<<64 - 1}},
		{`[1,2,3,4]`, []uint64{1, 2, 3, 4}},
	} {
		n, err := ParseRow([]byte(ok.in), dst[:])
		if err != nil || n != len(ok.want) {
			t.Errorf("%q: n %d, error %v; want %v", ok.in, n, err, ok.want)
			continue
		}
		for i, v := range ok.want {
			if dst[i] != v {
				t.Errorf("%q: element %d = %d, want %d", ok.in, i, dst[i], v)
			}
		}
	}
	for name, in := range map[string]string{
		"empty input":    ``,
		"empty array":    `[]`,
		"null":           `null`,
		"object":         `{"counts":[1],"sum":1}`,
		"bare number":    `7`,
		"negative":       `[-1]`,
		"plus sign":      `[+1]`,
		"fraction":       `[1.5]`,
		"exponent":       `[1e3]`,
		"leading zero":   `[01]`,
		"double zero":    `[00]`,
		"overflow":       `[18446744073709551616]`,
		"long overflow":  `[99999999999999999999999999]`,
		"string":         `["1"]`,
		"nested":         `[[1]]`,
		"bool":           `[true]`,
		"trailing comma": `[1,]`,
		"leading comma":  `[,1]`,
		"double comma":   `[1,,2]`,
		"no comma":       `[1 2]`,
		"space inside":   `[1, 2]`,
		"space around":   ` [1] `,
		"newline after":  "[1]\n",
		"unterminated":   `[1,2`,
		"trailing bytes": `[1]x`,
		"second row":     `[1][2]`,
		"too long":       `[1,2,3,4,5]`,
		"hex":            `[0x10]`,
		"full-width":     "[１]",
	} {
		if n, err := ParseRow([]byte(in), dst[:]); err == nil {
			t.Errorf("%s: %q parsed as %v", name, in, dst[:n])
		}
	}
}

func sampleHist() Hist {
	var h Hist
	for _, v := range []uint64{0, 0, 1, 3, 3, 250, 250, 251, 1 << 40} {
		h.Observe(v)
	}
	return h
}

// TestHistRow: the row lists the sum and the non-zero buckets in order,
// round-trips exactly, and decodes without allocating.
func TestHistRow(t *testing.T) {
	h := sampleHist()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[1099511628534,0,2,1,1,2,2,8,3,23,1]`
	if string(b) != want {
		t.Errorf("row %s, want %s", b, want)
	}
	var got Hist
	if err := json.Unmarshal(b, &got); err != nil || got != h {
		t.Errorf("round trip: %v, %+v", err, got)
	}
	if b, _ := json.Marshal(Hist{}); string(b) != `[0]` {
		t.Errorf("empty histogram encodes as %s, want [0]", b)
	}
	// A value (not a pointer) nested in a value still takes the row form:
	// the -metrics JSONL record is marshalled by value.
	if b, _ := json.Marshal(struct{ H Hists }{}); strings.Contains(string(b), "Counts") {
		t.Errorf("Hist nested by value lost its row form: %s", b)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := got.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Hist.UnmarshalJSON allocates %v times per row, want 0", n)
	}
}

// TestHistRowRejects: only a row AppendRow could have written decodes,
// so encode∘decode is the identity on accepted bytes; and a rejected row
// leaves the receiver zero, never the previous or a half-read value.
func TestHistRowRejects(t *testing.T) {
	for name, in := range map[string]string{
		"parent shape":      `{"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":0}`,
		"null":              `null`,
		"even length":       `[5,1]`,
		"empty":             `[]`,
		"bucket past range": `[5,24,1]`,
		"huge bucket":       `[5,18446744073709551615,1]`,
		"descending":        `[5,3,1,2,1]`,
		"repeated bucket":   `[5,3,1,3,1]`,
		"zero count":        `[5,3,0]`,
		"zero count later":  `[5,1,1,3,0]`,
		"too many pairs":    `[5` + strings.Repeat(`,1,1`, HistBuckets+1) + `]`,
		"fraction":          `[5,1,1.0]`,
	} {
		h := sampleHist()
		if err := json.Unmarshal([]byte(in), &h); err == nil {
			t.Errorf("%s: %s decoded to %+v", name, in, h)
		}
		if h != (Hist{}) {
			t.Errorf("%s: rejected row left the receiver %+v, want zero", name, h)
		}
	}
	// The decoder resets before it reads: buckets the row does not list
	// are zero afterwards, not what the receiver held.
	h := sampleHist()
	if err := json.Unmarshal([]byte(`[7,3,1]`), &h); err != nil {
		t.Fatal(err)
	}
	want := Hist{Sum: 7}
	want.Counts[3] = 1
	if h != want {
		t.Errorf("decode into a used receiver gave %+v, want %+v", h, want)
	}
}
