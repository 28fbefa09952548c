package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"crisp/internal/core"
	"crisp/internal/metrics"
	"crisp/internal/sim"
)

// RunRecord is one line of the metrics export: the identity of a resolved
// timing run plus its cycle accounting and histograms. The JSONL stream
// carries the record verbatim; the CSV stream flattens it to scalar
// columns (bucket slot counts, histogram means and p99s).
type RunRecord struct {
	Workload  string            `json:"workload"`
	Input     string            `json:"input"`
	Sched     string            `json:"sched"`
	Insts     uint64            `json:"insts"`
	Key       string            `json:"key"`
	Cached    bool              `json:"cached"`
	Cycles    uint64            `json:"cycles"`
	Committed uint64            `json:"committed"`
	IPC       float64           `json:"ipc"`
	Breakdown metrics.Breakdown `json:"breakdown"`
	Hists     metrics.Hists     `json:"hists"`

	// Host-side split: detailed core.Run time vs the functional
	// fast-forward that produced the run's checkpoint set (zero for
	// full-detail runs; shared across configs for sampled ones).
	HostNS   int64  `json:"host_ns"`
	HostFFNS int64  `json:"host_ff_ns,omitempty"`
	FFInsts  uint64 `json:"ff_insts,omitempty"`
	Windows  int    `json:"windows,omitempty"` // sampled windows (0 = full detail)

	// Skip efficiency of next-event idle-cycle skipping: simulated cycles
	// covered by bulk jumps and cycle-loop iterations the host actually
	// executed (Cycles == SkippedCycles + HostIters per window).
	SkippedCycles uint64 `json:"skipped_cycles"`
	HostIters     uint64 `json:"host_iters"`

	// Persistent-store provenance: whether this run's checkpoint set or
	// result came from the shared store rather than being computed here,
	// and how long the producing task blocked on cross-process file
	// locks. SpecStoreHit mirrors Cached (the spec_store_hit column name
	// matches the store counter it reports).
	CkptStoreHit bool  `json:"checkpoint_store_hit"`
	SpecStoreHit bool  `json:"spec_store_hit"`
	LockWaitNS   int64 `json:"lock_wait_ns"`

	// Capture provenance: host time and warming volume of the checkpoint
	// capture this run triggered. Zero when the set came from the store
	// or another run's in-process capture — the capture is charged to the
	// run that executed it, so summing the columns never double-counts.
	CaptureNS int64  `json:"capture_ns,omitempty"`
	WarmInsts uint64 `json:"warm_insts,omitempty"`

	// Shared marks a result computed here by joining another spec's
	// simulation (Stats.Shared): its HostNS and the rest of the host side
	// are that simulation's, already in the other spec's row, so a sum of
	// host columns skips shared rows.
	Shared bool `json:"shared,omitempty"`
}

// newRunRecord flattens a spec/result pair into a record.
func newRunRecord(spec sim.RunSpec, res *core.Result, cached bool) RunRecord {
	input := spec.Input
	if input == "" {
		input = sim.InputRef
	}
	sched := spec.Sched
	if sched == "" {
		sched = sim.SchedOOO
	}
	insts := spec.Insts
	if spec.Sampling != nil {
		insts = spec.Sampling.Total()
	}
	return RunRecord{
		Workload:      spec.Workload,
		Input:         input,
		Sched:         sched,
		Insts:         insts,
		Key:           spec.Key(),
		Cached:        cached,
		Cycles:        res.Cycles,
		Committed:     res.Insts,
		IPC:           res.IPC(),
		Breakdown:     res.Breakdown,
		Hists:         res.Hists,
		HostNS:        res.HostNS,
		HostFFNS:      res.HostFFNS,
		FFInsts:       res.FFInsts,
		Windows:       res.SampledWindows,
		SkippedCycles: res.SkippedCycles,
		HostIters:     res.HostIters,
		SpecStoreHit:  cached,
	}
}

// metricsSink streams RunRecords to the files configured in Options. Each
// unique run records once per process (the single-flight executor runs
// the producing task once); files are opened in append mode so successive
// sweeps accumulate.
type metricsSink struct {
	mu    sync.Mutex
	jsonl *os.File
	csv   *os.File
}

// newMetricsSink opens the configured outputs ("" disables a stream). A
// fresh CSV file gets its header row immediately so even an empty sweep
// leaves a parseable file.
func newMetricsSink(jsonlPath, csvPath string) (*metricsSink, error) {
	s := &metricsSink{}
	if jsonlPath != "" {
		f, err := os.OpenFile(jsonlPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("runner: open metrics jsonl: %w", err)
		}
		s.jsonl = f
	}
	if csvPath != "" {
		f, err := os.OpenFile(csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("runner: open metrics csv: %w", err)
		}
		s.csv = f
		if st, err := f.Stat(); err == nil && st.Size() == 0 {
			fmt.Fprintln(f, strings.Join(csvHeader(), ","))
		}
	}
	return s, nil
}

func (s *metricsSink) enabled() bool { return s != nil && (s.jsonl != nil || s.csv != nil) }

// record appends one run to every open stream. Write failures are
// reported once via the returned error chain at Close; a telemetry write
// must never fail the simulation that produced it.
func (s *metricsSink) record(rec RunRecord) {
	if !s.enabled() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jsonl != nil {
		if b, err := json.Marshal(rec); err == nil {
			s.jsonl.Write(append(b, '\n'))
		}
	}
	if s.csv != nil {
		fmt.Fprintln(s.csv, strings.Join(csvRow(rec), ","))
	}
}

func (s *metricsSink) close() error {
	var firstErr error
	for _, f := range []*os.File{s.jsonl, s.csv} {
		if f != nil {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.jsonl, s.csv = nil, nil
	return firstErr
}

// csvHeader returns the flat column names: run identity, totals, one
// slot-count column per stall bucket, then histogram summaries.
func csvHeader() []string {
	cols := []string{"workload", "input", "sched", "insts", "cached", "cycles", "committed", "ipc", "committed_frac"}
	cols = append(cols, metrics.BucketNames()...)
	return append(cols,
		"load_lat_mean", "load_lat_p99",
		"dram_lat_mean", "dram_lat_p99",
		"mlp_mean",
		"occ_rob_mean", "occ_rs_mean", "occ_lq_mean", "occ_sq_mean", "occ_mshr_mean",
		"host_ns", "host_ff_ns", "ff_insts", "windows",
		"skipped_cycles", "host_iters",
		"checkpoint_store_hit", "spec_store_hit", "lock_wait_ns",
		"capture_ns", "warm_insts", "shared")
}

func csvRow(rec RunRecord) []string {
	row := []string{
		rec.Workload, rec.Input, rec.Sched,
		fmt.Sprintf("%d", rec.Insts),
		fmt.Sprintf("%t", rec.Cached),
		fmt.Sprintf("%d", rec.Cycles),
		fmt.Sprintf("%d", rec.Committed),
		fmt.Sprintf("%.6f", rec.IPC),
		fmt.Sprintf("%.6f", rec.Breakdown.CommittedFrac()),
	}
	for _, n := range rec.Breakdown.Stalls {
		row = append(row, fmt.Sprintf("%d", n))
	}
	h := &rec.Hists
	return append(row,
		fmt.Sprintf("%.3f", h.LoadLat.Mean()),
		fmt.Sprintf("%d", h.LoadLat.Quantile(0.99)),
		fmt.Sprintf("%.3f", h.DRAMLat.Mean()),
		fmt.Sprintf("%d", h.DRAMLat.Quantile(0.99)),
		fmt.Sprintf("%.3f", h.MLPAtMiss.Mean()),
		fmt.Sprintf("%.3f", h.OccROB.Mean()),
		fmt.Sprintf("%.3f", h.OccRS.Mean()),
		fmt.Sprintf("%.3f", h.OccLQ.Mean()),
		fmt.Sprintf("%.3f", h.OccSQ.Mean()),
		fmt.Sprintf("%.3f", h.OccMSHR.Mean()),
		fmt.Sprintf("%d", rec.HostNS),
		fmt.Sprintf("%d", rec.HostFFNS),
		fmt.Sprintf("%d", rec.FFInsts),
		fmt.Sprintf("%d", rec.Windows),
		fmt.Sprintf("%d", rec.SkippedCycles),
		fmt.Sprintf("%d", rec.HostIters),
		fmt.Sprintf("%t", rec.CkptStoreHit),
		fmt.Sprintf("%t", rec.SpecStoreHit),
		fmt.Sprintf("%d", rec.LockWaitNS),
		fmt.Sprintf("%d", rec.CaptureNS),
		fmt.Sprintf("%d", rec.WarmInsts),
		fmt.Sprintf("%t", rec.Shared))
}
