package harness

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crisp/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden*.txt from the current simulator")

// TestGoldenFigures renders every figure through the runner-backed
// harness and compares the concatenated tables byte-for-byte against
// testdata/golden.txt, which was captured from the pre-runner harness
// (sequential per-figure execution). The refactor to a shared parallel
// runner with deduplication and memoization must not change a single
// digit of any table. The 8-way pool also serves as the -race exercise
// for the runner (see .github/workflows/ci.yml).
//
// The two co-location figures are the multi-core driver's committed pin
// (lockstep co-runs over one shared LLC/DRAM, in full detail and in
// restored windows) and live in testdata/golden_colocate.txt: bench's
// golden gate renders the single-core figure list against golden.txt.
func TestGoldenFigures(t *testing.T) {
	r, err := runner.New(context.Background(), runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabWithRunner(60_000, r)
	l.Only = []string{"mcf", "lbm"}

	// Generation submits every figure's specs before anything resolves:
	// all fourteen figures share one saturated pool, as cmd/experiments
	// -all does.
	single := []*Pending{
		l.Figure1Skip(500, 12, 2),
		l.Section31(),
		l.Figure4(),
		l.Figure7(),
		l.Figure8(),
		l.Figure9(),
		l.Figure10(),
		l.Figure11(),
		l.Figure12(),
		l.PrefetcherSensitivity(),
		l.CycleAccounting(),
		l.SamplingValidation(),
	}
	multi := []*Pending{l.Colocate(), l.ColocateSampled()}
	checkGolden(t, "golden.txt", single)
	checkGolden(t, "golden_colocate.txt", multi)
}

// checkGolden renders pendings in order and compares the tables with
// testdata/name, which -update rewrites first.
func checkGolden(t *testing.T, name string, pendings []*Pending) {
	t.Helper()
	var b strings.Builder
	for _, p := range pendings {
		tab, err := p.Table(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.Format())
	}
	got := b.String()

	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: figure tables diverge from the golden at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
}
