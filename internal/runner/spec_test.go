package runner

import (
	"encoding/json"
	"testing"

	"crisp/internal/crisp"
)

// FuzzDecodeAnalysisSpec feeds arbitrary bytes to the strict decoder of
// the analyses and footprints request bodies. It must never panic, and a
// spec it accepts must survive the trip a client's spec makes: marshalled
// and decoded again it is accepted and names the same task (equal Key).
func FuzzDecodeAnalysisSpec(f *testing.F) {
	good, err := json.Marshal(AnalysisSpec{Workload: "mcf", Insts: 400_000, Opts: crisp.DefaultOptions()})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeAnalysisSpec(good); err != nil {
		f.Fatalf("seed %s: %v", good, err)
	}
	for _, seed := range [][]byte{
		good,
		good[:len(good)/2],
		[]byte(`{"workload":"mcf","insts":2000,"opts":{}}`),
		[]byte(`{"workload":"mcf","insts":2000,"opts":{}} {"x":1}`),
		[]byte(`{"workload":"mcf","insts":2000,"opts":{}} }`),
		[]byte(`{"workload":"mcf","insts":2000,"options":{}}`),
		[]byte(`{"workload":"mcf"}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeAnalysisSpec(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := DecodeAnalysisSpec(b)
		if err != nil {
			t.Fatalf("accepted %q, but its re-marshalled form %s is rejected: %v", data, b, err)
		}
		if again.Key() != spec.Key() {
			t.Fatalf("accepted %q: content key changes over a marshal/decode round trip (%s)", data, b)
		}
	})
}
