package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/sim"
)

// TestHostLedger: Stats counts the detailed simulations this runner
// executed, each once. DetailInsts is the committed total of the -metrics
// rows that were neither loaded nor shared, over a sweep with a sampled
// run, a CRISP run (its analysis's train profile included) and two IBDA
// specs that share one simulation; a runner over the same store executes
// nothing and adds nothing. A 2-core sampled co-run adds its cores' and
// its capture's host time.
func TestHostLedger(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sched := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	specs := []sim.RunSpec{
		{Workload: "pointerchase", Sampling: &sched},
		chaseSpec(20_000).WithCrisp(crisp.DefaultOptions()),
		chaseSpec(20_000).WithIBDA(ibda.DefaultConfig()),
		chaseSpec(20_000).WithIBDA(ibda.Config{DLTEntries: 32}),
	}
	sweep := func(metrics string) Stats {
		r := newRunner(t, Options{Workers: 4, CacheDir: dir, MetricsJSONL: metrics})
		hs := make([]*RunHandle, len(specs))
		for i, s := range specs {
			hs[i] = r.Submit(s)
		}
		for _, h := range hs {
			if _, err := h.Result(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return r.Stats()
	}

	jl := filepath.Join(t.TempDir(), "runs.jsonl")
	st := sweep(jl)
	b, err := os.ReadFile(jl)
	if err != nil {
		t.Fatal(err)
	}
	var committed uint64
	var sampled *RunRecord
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Cached && !rec.Shared {
			committed += rec.Committed
		}
		if rec.Windows > 0 {
			sampled = &rec
		}
	}
	if st.Shared != 1 || st.Executed != 5 {
		t.Errorf("Executed %d, Shared %d; want 5 (four specs and a train profile) and 1", st.Executed, st.Shared)
	}
	if uint64(st.DetailInsts) != committed || st.DetailNS <= 0 {
		t.Errorf("DetailInsts %d, DetailNS %d; want %d, the rows' committed total, and > 0", st.DetailInsts, st.DetailNS, committed)
	}
	// The sampled run triggered the capture, so its row carries the set's
	// cost twice over: as the capture it claimed and as its fast-forward.
	if sampled == nil || sampled.Windows != sched.Count || sampled.FFInsts == 0 ||
		sampled.CaptureNS != sampled.HostFFNS || st.CaptureNS != sampled.CaptureNS {
		t.Errorf("sampled row %+v against CaptureNS %d", sampled, st.CaptureNS)
	}

	if again := sweep(""); again.Executed != 0 || again.DetailInsts != 0 || again.DetailNS != 0 {
		t.Errorf("over the store: Executed %d, DetailInsts %d, DetailNS %d; want 0", again.Executed, again.DetailInsts, again.DetailNS)
	}

	r := newRunner(t, Options{Workers: 2})
	m, err := r.RunMulti(ctx, sim.MultiSpec{Cores: []sim.RunSpec{{Workload: "tailchase"}, {Workload: "streambatch"}}, Sampling: &sched})
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.CaptureNS < m.HostFFNS || st.DetailNS != m.HostNS ||
		uint64(st.DetailInsts) != m.Cores[0].Insts+m.Cores[1].Insts {
		t.Errorf("co-run: CaptureNS %d, DetailNS %d, DetailInsts %d; want ≥ %d, %d, %d",
			st.CaptureNS, st.DetailNS, st.DetailInsts, m.HostFFNS, m.HostNS, m.Cores[0].Insts+m.Cores[1].Insts)
	}
}
