package runner

import (
	"context"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/sim"
)

// Remote executes tasks on a crispd job server instead of simulating
// locally. When Options.Remote is set, the task bodies delegate whole
// specs to it — the server owns the persistent store, the file locks
// and the cross-client dedup, so a remote runner must not also have a
// local CacheDir (New rejects the combination).
//
// The in-process single-flight memo still applies on top: a figure
// suite that references one baseline from ten rows posts it to the
// server once and shares the decoded result. Sharing by simulation key
// does not: each distinct Run or RunMulti key is posted, and the server
// shares the simulations behind them. Remote results are not recorded in
// the local metrics sink (the server records its own); they are counted in
// Stats.RemoteRuns.
//
// internal/crispd.Client is the HTTP implementation.
type Remote interface {
	Run(ctx context.Context, spec sim.RunSpec) (*core.Result, error)
	RunMulti(ctx context.Context, spec sim.MultiSpec) (*sim.MultiResult, error)
	Analysis(ctx context.Context, spec AnalysisSpec) (*crisp.Analysis, error)
	Footprint(ctx context.Context, spec AnalysisSpec) (*crisp.Footprint, error)
}
