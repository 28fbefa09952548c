package metrics

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestParseRowStrict: the shared row parser, Reader.Row, takes one array
// of unsigned decimals and nothing else. Every rejected body here is
// either valid JSON of another shape or not JSON at all; none may panic
// or half-fill.
func TestParseRowStrict(t *testing.T) {
	var dst [4]uint64
	parseRow := func(in string) (int, error) {
		r := NewReader([]byte(in))
		n := r.Row(dst[:])
		return n, r.End()
	}
	for _, ok := range []struct {
		in   string
		want []uint64
	}{
		{`[0]`, []uint64{0}},
		{`[1,20,300]`, []uint64{1, 20, 300}},
		{`[18446744073709551615]`, []uint64{1<<64 - 1}},
		{`[1,2,3,4]`, []uint64{1, 2, 3, 4}},
		{"[7]\n", []uint64{7}}, // the one whitespace: json.Encoder's newline
	} {
		n, err := parseRow(ok.in)
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
		"two newlines":   "[1]\n\n",
		"newline inside": "[1,\n2]",
		"unterminated":   `[1,2`,
		"trailing bytes": `[1]x`,
		"second row":     `[1][2]`,
		"too long":       `[1,2,3,4,5]`,
		"hex":            `[0x10]`,
		"full-width":     "[１]",
	} {
		if n, err := parseRow(in); err == nil {
			t.Errorf("%s: %q parsed as %v", name, in, dst[:n])
		}
	}
}

// readerValue is what readAll makes of an object of known keys.
type readerValue struct {
	U    uint64
	I    int64
	F    float64
	S    string
	X    string // the bytes Skip returned
	Null bool
}

func readAll(in string) (readerValue, error) {
	var v readerValue
	r := NewReader([]byte(in))
	r.Object(func(key []byte) {
		switch string(key) {
		case "u":
			v.U = r.Uint()
		case "i":
			v.I = r.Int()
		case "f":
			v.F = r.Float()
		case "s":
			v.S = r.String()
		case "x":
			v.X = string(r.Skip())
		case "n":
			v.Null = r.Null()
		default:
			r.Fail(errors.New("unknown"))
		}
	})
	return v, r.End()
}

// TestReaderStrict: the reader takes what json.Marshal writes, decodes it
// as encoding/json does, and refuses the rest — whitespace, numbers of the
// wrong kind or range, escaped keys, trailing bytes — with an error that
// says where.
func TestReaderStrict(t *testing.T) {
	for _, ok := range []struct {
		in   string
		want readerValue
	}{
		{`{}`, readerValue{}},
		{`{"u":18446744073709551615,"i":-9223372036854775808,"f":-1.5e-7}`, readerValue{U: 1<<64 - 1, I: -1 << 63, F: -1.5e-7}},
		{`{"i":9223372036854775807,"f":0,"n":null}` + "\n", readerValue{I: 1<<63 - 1, Null: true}},
		{`{"s":"plain","u":3}`, readerValue{S: "plain", U: 3}},
		{`{"s":"q\"<é\n"}`, readerValue{S: "q\"<é\n"}},
		{`{"s":"é"}`, readerValue{S: "é"}},
		{`{"x":{"a":[1,"]}\"{"],"b":{}},"u":2}`, readerValue{X: `{"a":[1,"]}\"{"],"b":{}}`, U: 2}},
		{`{"x":-1.5e3,"x":"s","u":1}`, readerValue{X: `"s"`, U: 1}},
		{`{"x":true}`, readerValue{X: `true`}},
	} {
		got, err := readAll(ok.in)
		if err != nil || got != ok.want {
			t.Errorf("%s: %+v, %v; want %+v", ok.in, got, err, ok.want)
		}
		var ref readerValue // encoding/json matches "u" to U: keys fold case
		if ok.want.X == "" && !ok.want.Null {
			if err := json.Unmarshal([]byte(ok.in), &ref); err != nil || ref != got {
				t.Errorf("%s: encoding/json reads %+v (%v), the reader %+v", ok.in, ref, err, got)
			}
		}
	}
	for name, in := range map[string]string{
		"empty":             ``,
		"space after brace": `{ "u":1}`,
		"space after colon": `{"u": 1}`,
		"space before end":  `{"u":1 }`,
		"leading newline":   "\n{}",
		"trailing bytes":    `{"u":1}x`,
		"second value":      `{}{}`,
		"trailing comma":    `{"u":1,}`,
		"unknown key":       `{"v":1}`,
		"escaped key":       "{\"\\" + `u0075":1}`,
		"unterminated key":  `{"u`,
		"no colon":          `{"u"1}`,
		"negative uint":     `{"u":-1}`,
		"leading zero":      `{"u":01}`,
		"uint fraction":     `{"u":1.0}`,
		"uint exponent":     `{"u":1e2}`,
		"uint overflow":     `{"u":18446744073709551616}`,
		"uint string":       `{"u":"1"}`,
		"uint null":         `{"u":null}`,
		"int overflow":      `{"i":9223372036854775808}`,
		"int underflow":     `{"i":-9223372036854775809}`,
		"int fraction":      `{"i":-1.5}`,
		"bare minus":        `{"i":-}`,
		"float dot":         `{"f":1.}`,
		"float leading dot": `{"f":.5}`,
		"float exponent":    `{"f":1e}`,
		"float plus":        `{"f":+1}`,
		"float range":       `{"f":1e400}`,
		"float hex":         `{"f":0x10}`,
		"float leading 0":   `{"f":01.5}`,
		"string raw tab":    "{\"s\":\"a\tb\"}",
		"string bad escape": `{"s":"\x"}`,
		"string open":       `{"s":"ab}`,
		"string number":     `{"s":1}`,
		"skip open":         `{"x":{"a":[1,2}`,
		"skip empty":        `{"x":}`,
		"skip open string":  `{"x":"ab`,
		"array for object":  `[1]`,
		"truncated":         `{"u":1`,
	} {
		if v, err := readAll(in); err == nil {
			t.Errorf("%s: %q read as %+v", name, in, v)
		}
	}
	_, err := readAll(`{"u":1,"i":"x"}`)
	if err == nil || !strings.Contains(err.Error(), `byte 11, field "i"`) {
		t.Errorf("error %v does not say where", err)
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
