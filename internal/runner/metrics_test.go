package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crisp/internal/core"
)

// TestMetricsExport: a runner with a metrics file configured writes one
// JSONL record per resolved run, and the record carries the exact cycle
// accounting of the result it describes.
func TestMetricsExport(t *testing.T) {
	jl := filepath.Join(t.TempDir(), "runs.jsonl")
	r := newRunner(t, Options{Workers: 2, MetricsJSONL: jl})
	res, err := r.Run(context.Background(), chaseSpec(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(jl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 1 {
		t.Fatalf("jsonl has %d records, want 1", len(lines))
	}
	var rec RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("jsonl record does not parse: %v", err)
	}
	if rec.Workload != "pointerchase" || rec.Sched != "ooo" || rec.Input != "ref" || rec.Cached {
		t.Errorf("record identity wrong: %+v", rec)
	}
	if rec.Cycles != res.Cycles || rec.Committed != res.Insts {
		t.Errorf("record totals: cycles %d/%d committed %d/%d", rec.Cycles, res.Cycles, rec.Committed, res.Insts)
	}
	if rec.Breakdown != res.Breakdown || rec.Hists != res.Hists {
		t.Error("cycle accounting did not survive the JSONL round trip")
	}
	w := uint64(core.DefaultConfig().CommitWidth)
	if got := rec.Breakdown.Total(); got != rec.Cycles*w {
		t.Errorf("record breakdown total %d != cycles×width %d", got, rec.Cycles*w)
	}
	if rec.SkippedCycles != res.SkippedCycles || rec.HostIters != res.HostIters {
		t.Errorf("skip efficiency: record %d/%d, result %d/%d",
			rec.SkippedCycles, rec.HostIters, res.SkippedCycles, res.HostIters)
	}
	if rec.SkippedCycles+rec.HostIters != rec.Cycles {
		t.Errorf("skipped %d + iters %d != cycles %d", rec.SkippedCycles, rec.HostIters, rec.Cycles)
	}
}

// TestMetricsExportDisabled: the zero Options leave no sink; Close is a
// no-op and running works as before.
func TestMetricsExportDisabled(t *testing.T) {
	r := newRunner(t, Options{Workers: 1})
	if _, err := r.Run(context.Background(), chaseSpec(5_000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsWriteError: a record the file refused is not lost silently;
// Close returns the first write error.
func TestMetricsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	r := newRunner(t, Options{Workers: 1, MetricsJSONL: "/dev/full"})
	if _, err := r.Run(context.Background(), chaseSpec(5_000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close returned nil after a failed metrics write")
	}
}
