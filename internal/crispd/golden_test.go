package crispd

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"testing"

	"crisp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/statsz.golden.json from the current server")

// statszGolden pins the /v1/statsz payload, field names and order: the
// scraping surface beside the -metrics JSONL line the runner pins.
const statszGolden = "testdata/statsz.golden.json"

// TestStatszGolden: a server that computed one full-detail and one sampled
// run, then answered the first again from the store, reports these
// counters. The time and host fields are zeroed (and the cached result's
// size, whose host fields vary in width); the counts are deterministic.
func TestStatszGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 7, Store: t.TempDir()})
	sampled := sim.RunSpec{Workload: "pointerchase", Sampling: &sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}}
	for _, spec := range []sim.RunSpec{fastSpec(), sampled, fastSpec()} {
		serveResult(t, ts.URL, spec)
	}
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	if err := json.Unmarshal(rb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Runner.DetailNS <= 0 || st.Runner.CaptureNS <= 0 {
		t.Errorf("host times not counted: %+v", st.Runner)
	}
	st.UptimeS, st.ResultCache.Bytes = 0, 0
	st.Runner.LockWaitNS, st.Runner.CaptureNS, st.Runner.DetailNS = 0, 0, 0
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(statszGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(statszGolden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/crispd -run TestStatszGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the current payload (rerun with -update if the change is meant):\nwant %s\ngot  %s", statszGolden, want, got)
	}
}
