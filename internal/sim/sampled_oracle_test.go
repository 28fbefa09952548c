package sim

import (
	"context"
	"fmt"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/ibda"
	"crisp/internal/program"
)

// RefRunSampledContext is the single-core window runner as it stood before
// it became the one-core call of RunMultiSampledContext, kept as the
// oracle of TestSampledMatchesOracle (sampling_test.go: it captures
// registered workloads, which this package cannot import). Two calls
// changed: the independent windows, once fanned out over GOMAXPROCS
// goroutines, run in a loop in index order, and each window runs through
// core.RunMulti, which the budget-checking core.RunMultiWindow wrapped.
var RefRunSampledContext = refRunSampledContext

// refRunSampledContext executes a sampled simulation of prog under cfg over a
// previously captured checkpoint set: it restores each checkpoint into a
// fresh detailed window (cloned warmed hierarchy and predictors, copy-on-write memory fork,
// per-config prefetcher/IBDA attachments) of Window instructions under
// cfg, and aggregates the per-window results into one weighted
// core.Result: windows are equal-length, so summing counters, breakdowns
// and histograms is the weighted aggregate. prog must be position-
// identical to the program the set was captured from (a critical-tagged
// clone qualifies). The set is only read, never mutated, so any number of
// configs may run over it concurrently.
func refRunSampledContext(ctx context.Context, set *checkpoint.Set, prog *program.Program, cfg Config, s Sampling) (*core.Result, error) {
	check := cancelCheck(ctx)
	results := make([]*core.Result, len(set.Points))
	if cfg.IBDA != nil {
		// One IBDA instance spans the windows: the runtime mechanism would
		// have been learning continuously across the whole execution, so
		// the windows must run sequentially in execution order.
		ib := ibda.New(*cfg.IBDA)
		for i, pt := range set.Points {
			r, err := refRunWindow(pt, prog, cfg, s.Window, ib, check)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[i] = r
		}
	} else {
		// Without cross-window state the windows are independent.
		for i, pt := range set.Points {
			r, err := refRunWindow(pt, prog, cfg, s.Window, nil, check)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var agg *core.Result
	for _, r := range results {
		if agg == nil {
			agg = r
		} else {
			agg.Merge(r)
		}
	}
	if agg == nil {
		agg = &core.Result{Loads: map[int]*core.LoadProf{}, Branches: map[int]*core.BranchProf{}}
	}
	agg.SampledWindows = len(set.Points)
	agg.FFInsts = set.FFInsts
	agg.HostFFNS = set.HostNS
	return agg, nil
}

// refRunWindow restores one checkpoint into a fresh one-core lockstep window
// (cloned warmed hierarchy and predictors, copy-on-write memory fork) and
// runs Window instructions of it under cfg. ib may be nil; when set, the
// caller is responsible for running windows sequentially.
func refRunWindow(pt *checkpoint.Point, prog *program.Program, cfg Config, window uint64, ib *ibda.IBDA, check func() bool) (*core.Result, error) {
	st, err := pt.Restore(prog, cfg.Prefetcher.String())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var marker core.Marker
	if ib != nil {
		marker = attachIBDA(ib, prog, st.Hier.Views[0])
	}
	return core.RunMulti([]*core.Core{windowCore(cfg.Core, window, prog, st, 0, marker)}, check)[0], nil
}
