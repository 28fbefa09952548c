package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"crisp/internal/crisp"
	"crisp/internal/ibda"
)

// TestDecodeRunSpecRoundTrip: marshalling a spec and strictly decoding
// it back preserves the content key — the invariant crispd's dedup
// rests on: a spec submitted over HTTP names the same simulation as the
// same spec built in-process.
func TestDecodeRunSpecRoundTrip(t *testing.T) {
	opts := crisp.DefaultOptions()
	ib := ibda.Config{ISTEntries: 1024, ISTWays: 4, DLTEntries: 32}
	specs := []RunSpec{
		{Workload: "mcf", Insts: 400_000},
		{Workload: "mcf", Input: InputTrain, Sched: SchedRandom, Insts: 1, RS: 48, ROB: 112, Prefetcher: PFStride, UPCWindow: 100},
		{Workload: "lbm", Insts: 0, Sampling: &Sampling{Warm: 90_000, Window: 10_000, Count: 4}},
		{Workload: "pointerchase", Sched: SchedCRISP, Insts: 200_000, Crisp: &opts},
		{Workload: "pointerchase", Sched: SchedCRISP, Insts: 200_000, IBDA: &ib, PerfectBP: true},
	}
	for _, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRunSpec(b)
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		if got.Key() != spec.Key() {
			t.Errorf("round trip changed the content key for %s", b)
		}
	}
}

// TestDecodeMultiSpecRoundTrip: same invariant for multi-core specs.
func TestDecodeMultiSpecRoundTrip(t *testing.T) {
	m := MultiSpec{Cores: []RunSpec{
		{Workload: "tailchase", Insts: 100_000},
		{Workload: "streambatch", Insts: 100_000, Sched: SchedCRISP, Crisp: func() *crisp.Options { o := crisp.DefaultOptions(); return &o }()},
	}}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultiSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != m.Key() {
		t.Error("round trip changed the multi-spec content key")
	}
}

// TestDecodeRejects: unknown fields, invalid specs, malformed JSON and
// trailing garbage are all errors, never silently-defaulted specs.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown field", `{"workload":"mcf","insts":1000,"shed":"crisp"}`, "unknown field"},
		{"bad scheduler", `{"workload":"mcf","insts":1000,"sched":"fifo"}`, "unknown scheduler"},
		{"no workload", `{"insts":1000}`, "no workload"},
		{"trailing garbage", `{"workload":"mcf","insts":1000} {"again":true}`, "trailing data"},
		{"trailing bracket", `{"workload":"mcf","insts":1000} }`, "trailing data"},
		{"not json", `insts=1000`, "decode RunSpec"},
		{"both crisp and ibda", `{"workload":"mcf","insts":1,"crisp":{},"ibda":{}}`, "both"},
		{"sampling and insts", `{"workload":"mcf","insts":5,"sampling":{"window":10,"count":2}}`, "mutually exclusive"},
	}
	for _, c := range cases {
		if _, err := DecodeRunSpec([]byte(c.body)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if _, err := DecodeMultiSpec([]byte(`{"cores":[{"workload":"mcf","insts":1}],"extra":1}`)); err == nil {
		t.Error("MultiSpec with unknown field decoded without error")
	}
	if _, err := DecodeMultiSpec([]byte(`{"cores":[]}`)); err == nil {
		t.Error("empty MultiSpec decoded without error")
	}
}

// fuzzSpecSeeds returns the seed bodies shared by the two spec decoders
// (each fuzzer is offered all of them, so it also starts from input shaped
// for the other): a plain spec, a CRISP spec under a sampling schedule and
// a 4-core multi spec as a client would marshal them, then a truncated
// body, an unknown field and trailing data.
func fuzzSpecSeeds(f *testing.F) [][]byte {
	opts := crisp.DefaultOptions()
	plain := RunSpec{Workload: "mcf", Insts: 400_000}
	sampled := RunSpec{Workload: "pointerchase", Prefetcher: PFStride, Sampling: &Sampling{Warm: 90_000, Window: 10_000, Count: 4}}.WithCrisp(opts)
	multi := MultiSpec{Cores: []RunSpec{
		{Workload: "tailchase", Insts: 100_000},
		RunSpec{Workload: "streambatch", Insts: 100_000}.WithCrisp(opts),
		{Workload: "mcf", Insts: 100_000, Prefetcher: PFGHB},
		{Workload: "lbm", Insts: 100_000, RS: 48, ROB: 112},
	}}
	var seeds [][]byte
	for _, v := range []any{plain, sampled, multi} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	if _, err := DecodeRunSpec(seeds[1]); err != nil {
		f.Fatalf("seed %s: %v", seeds[1], err)
	}
	if _, err := DecodeMultiSpec(seeds[2]); err != nil {
		f.Fatalf("seed %s: %v", seeds[2], err)
	}
	return append(seeds,
		seeds[1][:len(seeds[1])/2],
		[]byte(`{"workload":"mcf","insts":1000,"shed":"crisp"}`),
		[]byte(`{"workload":"mcf","insts":1000} {"again":true}`),
		[]byte(`{"cores":[{"workload":"mcf","insts":1}],"extra":1}`),
	)
}

// fuzzDecode feeds arbitrary bytes to a strict spec decoder — it reads
// request bodies straight off the wire in crispd. It must never panic,
// and a spec it accepts must survive the trip a client's spec makes:
// marshalled and decoded again it is accepted and names the same
// simulation (equal Key), or two clients could disagree about a key.
func fuzzDecode[S interface{ Key() string }](f *testing.F, decode func([]byte) (S, error)) {
	for _, seed := range fuzzSpecSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decode(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := decode(b)
		if err != nil {
			t.Fatalf("accepted %q, but its re-marshalled form %s is rejected: %v", data, b, err)
		}
		if again.Key() != spec.Key() {
			t.Fatalf("accepted %q: content key changes over a marshal/decode round trip (%s)", data, b)
		}
	})
}

func FuzzDecodeRunSpec(f *testing.F)   { fuzzDecode(f, DecodeRunSpec) }
func FuzzDecodeMultiSpec(f *testing.F) { fuzzDecode(f, DecodeMultiSpec) }
