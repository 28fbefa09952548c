package harness

import (
	"fmt"

	"crisp/internal/core"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// SamplingValidation renders the sampled-simulation validation figure:
// for each workload, full-detail IPC at the Lab's budget next to the
// sampled IPC under the auto schedule at the same budget, and the
// relative error between them. The cells are deterministic, so the
// figure is golden-pinnable; the host-side speedup — wall-clock, and so
// run-to-run noisy — is appended as a note only when l.HostNotes is set
// (cmd/experiments sets it, the golden test does not).
func (l *Lab) SamplingValidation() *Pending {
	s := sim.AutoSampling(l.Insts)
	t := &Table{
		Title:   "Sampled simulation: IPC vs full detail",
		Columns: []string{"app", "full_ipc", "sampled_ipc", "err_%"},
	}
	suite := l.suite()
	fulls, samples := make([]*core.Result, len(suite)), make([]*core.Result, len(suite)) // by row
	var rows []rowSource
	for i, name := range suite {
		hs := []*runner.RunHandle{l.R.Submit(l.refSpec(name)), l.R.Submit(l.sampledSpec(name, s))}
		rows = append(rows, row(name, hs, func(rs []*core.Result) ([]float64, error) {
			fr, sr := rs[0], rs[1]
			fulls[i], samples[i] = fr, sr
			return []float64{fr.IPC(), sr.IPC(), (sr.IPC()/fr.IPC() - 1) * 100}, nil
		}))
	}
	return pending(t, rows, func(t *Table) {
		detailed := s.Window * uint64(s.Count)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"schedule: %d windows x %d insts detailed (%d%% of the %d-inst budget), continuous functional warming",
			s.Count, s.Window, detailed*100/s.Total(), s.Total()))
		t.Notes = append(t.Notes,
			"error shrinks as the budget grows past the full run's cold-cache transient; sim's equivalence test pins <=2% at 5M insts")
		if l.HostNotes {
			var fullNS, sampNS int64
			for i := range fulls {
				fullNS += fulls[i].HostNS
				sampNS += samples[i].HostNS + samples[i].HostFFNS
			}
			if sampNS > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"host time: %.2fs full detail vs %.2fs sampled incl. capture (%.1fx); capture is shared by every config of a workload",
					float64(fullNS)/1e9, float64(sampNS)/1e9, float64(fullNS)/float64(sampNS)))
			}
		}
	})
}

// sampledSpec is the OOO baseline on the ref input, simulated via
// fast-forward + checkpointed detailed windows under schedule s.
func (l *Lab) sampledSpec(name string, s sim.Sampling) sim.RunSpec {
	return sim.RunSpec{Workload: name, Input: sim.InputRef, Sched: sim.SchedOOO, Sampling: &s}
}
