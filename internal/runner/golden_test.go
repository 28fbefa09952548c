package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"crisp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.* from the current simulator")

// The two machine-readable surfaces that carry a result, pinned byte for
// byte: what the store holds and crispd serves, and one -metrics JSONL
// line. A renamed or reordered field, column or row element fails here
// instead of in somebody's parser. Both change, with -update, when
// sim.CodeVersion does (the JSONL record carries the spec's content key)
// or when the simulated numbers do.
const (
	resultGolden  = "testdata/result.golden.json"
	metricsGolden = "testdata/metrics.golden.jsonl"
)

func TestGoldenResultEncodings(t *testing.T) {
	spec := sim.RunSpec{Workload: "pointerchase", Insts: 20_000, Prefetcher: sim.PFStride}
	res, err := newRunner(t, Options{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The fields that describe the host run, not the simulated machine,
	// zeroed as bench's scrub does.
	c := *res
	c.HostNS, c.HostAllocs, c.HostIters, c.HostFFNS, c.SkippedCycles = 0, 0, 0, 0, 0
	for path, v := range map[string]any{resultGolden: &c, metricsGolden: newRunRecord(spec, &c, false)} {
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/runner -run TestGoldenResultEncodings -update`)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the current encoding (rerun with -update if the change is meant):\nwant %s\ngot  %s", path, want, got)
		}
	}
}
