package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON pins BENCHMARK.json to the definitions the program
// runs with: the same workloads and reasons, the same metric names,
// units, directions and bounds, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, d.Name, d.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(gotName, gotUnit, gotBetter string, gotBound float64, d metricDef) {
		if gotName != d.Name || gotUnit != d.Unit || gotBetter != d.Better || gotBound != d.Bound {
			t.Errorf("BENCHMARK.json has %s [%s] %s %g, the program %s [%s] %s %g", gotName, gotUnit, gotBetter, gotBound, d.Name, d.Unit, d.Better, d.Bound)
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q [%s]: bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for i, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better, m.Bound, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better, 0, perLayer[i])
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// smokeSession runs the workloads in the test process at a tiny scale
// (a first execution and one timed repetition each), writing under a
// temporary directory.
func smokeSession(t *testing.T, seed int64, trace, golden bool) *report {
	t.Helper()
	s := &session{
		root: "..", out: t.TempDir(), stdout: io.Discard, seed: seed, reps: 1, scale: 0.05, apps: 1, trace: trace, golden: golden,
		spawn: func(p params) (*repResult, error) {
			p.T0 = time.Now().UnixNano()
			return runRep(p)
		},
	}
	rep, err := s.runAll(workloadNames())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkWorkload checks one workload's report against the metric list it must
// carry, and that nothing failed.
func checkWorkload(t *testing.T, w workloadReport, defs []metricDef) {
	t.Helper()
	if w.Failed != 0 || w.FailedFrac != 0 || w.Ops == 0 {
		t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Ops, w.Failures)
	}
	if len(w.SimDigest) != 64 {
		t.Errorf("%s: sim_digest %q", w.Name, w.SimDigest)
	}
	if len(w.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", w.Name, len(w.Metrics), len(defs))
	}
	for i, m := range w.Metrics {
		if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", w.Name, i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
		}
	}
}

// TestSmoke runs all four workloads at a tiny scale, end to end (golden
// gate included) under one seed and traced under another: every listed
// metric is emitted and no other, nothing fails, the last line has the
// driver's schema, and the two seeds have different content keys. That
// one seed gives one digest is an operation of both runs: every timed
// repetition must reproduce the first execution's, and the traced run
// the untraced one's.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	a, traced := smokeSession(t, 2, false, true), smokeSession(t, 1, true, false)
	for i, w := range a.Workloads {
		checkWorkload(t, w, endToEnd)
		for _, m := range w.Metrics {
			if m.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.Name, m.Name, m.Median)
			}
			if m.N != 1 {
				t.Errorf("%s: %s has %d samples after one timed repetition", w.Name, m.Name, m.N)
			}
		}
		if got := traced.Workloads[i].SimDigest; got == w.SimDigest {
			t.Errorf("%s: seeds 1 and 2 gave the same sim_digest, so the same content keys", w.Name)
		}
		if len(w.Measured) != len(asMeasured) || w.Measured[0].N != 3 || w.RefFactor <= 0 {
			t.Errorf("%s: as measured %v, reference factor %g; want %d summaries, ref_s first with 3 samples", w.Name, w.Measured, w.RefFactor, len(asMeasured))
		}
		if (w.SimDigestUnstable != "") != (w.Name == "suite_detail") {
			t.Errorf("%s: sim_digest_unstable is %q; only suite_detail has jobs that do not reproduce", w.Name, w.SimDigestUnstable)
		}
	}

	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		} `json:"metrics"`
	}
	one := &report{Workloads: a.Workloads[:1]}
	dec := json.NewDecoder(strings.NewReader(one.lastLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("last line counts: %s", one.lastLine())
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("last line has %d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.Unit {
			t.Errorf("last line lacks %s [%s]", d.Name, d.Unit)
		}
	}

	for _, w := range traced.Workloads {
		checkWorkload(t, w, perLayer)
		if len(w.LayerSelfS) == 0 {
			t.Errorf("%s: the layer walk charged no layer", w.Name)
		}
		if _, err := os.Stat(w.TraceFile); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// TestJudge pins the comparison rule: worse by more than the bound is a
// regression, a spread wider than the bound leaves the metric
// unresolved, and direction follows the metric.
func TestJudge(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"rps", "1/s", "higher", 0.10}
	cases := []struct {
		def  metricDef
		a, b []float64
		want verdict
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, ok},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, regressed},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, ok},
		{lower, []float64{10, 13, 7}, []float64{11.5, 11.6, 11.4}, unresolved},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, regressed},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, ok},
	}
	for i, c := range cases {
		if _, got := judge(summarize(c.def, c.a), summarize(c.def, c.b)); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %g %g %g, want 1 2 3", q1, med, q3)
	}
}
