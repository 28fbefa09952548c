package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"crisp/internal/core"
	"crisp/internal/metrics"
	"crisp/internal/sim"
)

// RunRecord is one line of the -metrics JSONL export: the identity of a
// resolved timing run plus its cycle accounting and histograms.
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
	// locks. SpecStoreHit mirrors Cached (the spec_store_hit field name
	// matches the store counter it reports).
	CkptStoreHit bool  `json:"checkpoint_store_hit"`
	SpecStoreHit bool  `json:"spec_store_hit"`
	LockWaitNS   int64 `json:"lock_wait_ns"`

	// Capture provenance: host time and warming volume of the checkpoint
	// capture this run triggered. Zero when the set came from the store
	// or another run's in-process capture — the capture is charged to the
	// run that executed it, so summing the fields never double-counts.
	CaptureNS int64  `json:"capture_ns,omitempty"`
	WarmInsts uint64 `json:"warm_insts,omitempty"`

	// Shared marks a result computed here by joining another spec's
	// simulation (Stats.Shared): its HostNS and the rest of the host side
	// are that simulation's, already in the other spec's row, so a sum of
	// host fields skips shared rows.
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

// metricsSink appends RunRecords to the -metrics JSONL file. Each unique
// run records once per process (the single-flight executor runs the
// producing task once); the file is opened in append mode so successive
// sweeps accumulate. A nil sink records nothing.
type metricsSink struct {
	mu  sync.Mutex
	f   *os.File // nil once closed
	err error    // the first failed write, returned by close
}

// newMetricsSink opens path for appending ("" = no sink).
func newMetricsSink(path string) (*metricsSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open metrics: %w", err)
	}
	return &metricsSink{f: f}, nil
}

// record appends one run. A failed write does not fail the simulation
// that produced the record; the first one is kept and returned by close.
func (s *metricsSink) record(rec RunRecord) {
	if s == nil {
		return
	}
	b, err := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return
	}
	if err == nil {
		_, err = s.f.Write(append(b, '\n'))
	}
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("runner: write metrics: %w", err)
	}
}

// close closes the file and returns the first write error, else the
// close error. Later records are dropped.
func (s *metricsSink) close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.f = nil
	}
	return s.err
}
