package crispd

import (
	"context"
	"encoding/json"
	"fmt"

	"crisp/internal/runner"
	"crisp/internal/sim"
)

// execFunc runs one admitted job on the server's runner.
type execFunc func(context.Context) (any, error)

// kind is one row of the kind table: everything crispd knows about one
// submittable task family. Handler registers the row's submission and
// status routes, a submission goes through the row's job, lookup reads the
// store through its loader and Client posts to its path, so a new kind is
// one runner method plus one row.
type kind struct {
	name string // wire name (JobStatus.Kind) and the store's file-name prefix
	path string // route prefix: POST path, GET path/{key}
	// job takes a request body to the job it names: the strict wire
	// decoder of the kind's spec (unknown field or trailing data is an
	// error), the spec's own Validate, then the server's gate (its
	// workloads exist and it is bounded). It returns the content key and
	// the execution.
	job func(r *runner.Runner, body []byte) (key string, exec execFunc, err error)
	// load reads a published entry through the kind's result type.
	load func(st *runner.Store, kind, key string) (json.RawMessage, bool)
}

func newKind[S interface{ Key() string }, T any](name, path string, decode func([]byte) (S, error), check func(S) error,
	run func(*runner.Runner, context.Context, S) (*T, error)) *kind {
	return &kind{
		name: name, path: path,
		job: func(r *runner.Runner, body []byte) (string, execFunc, error) {
			sp, err := decode(body)
			if err == nil {
				err = check(sp)
			}
			if err != nil {
				return "", nil, err
			}
			return sp.Key(), func(ctx context.Context) (any, error) { return run(r, ctx, sp) }, nil
		},
		load: loadResult[T],
	}
}

// The kind table.
var (
	runKind       = newKind(runner.KindRun, "/v1/runs", sim.DecodeRunSpec, checkRun, (*runner.Runner).Run)
	multiKind     = newKind(runner.KindMulti, "/v1/multi", sim.DecodeMultiSpec, checkMulti, (*runner.Runner).RunMulti)
	analysisKind  = newKind(runner.KindAnalysis, "/v1/analyses", runner.DecodeAnalysisSpec, checkPipeline, (*runner.Runner).Analysis)
	footprintKind = newKind(runner.KindFootprint, "/v1/footprints", runner.DecodeAnalysisSpec, checkPipeline, (*runner.Runner).Footprint)

	kinds = []*kind{runKind, multiKind, analysisKind, footprintKind}
)

// checkBounded rejects specs that would simulate forever: remote
// submissions must carry an instruction budget or a sampling schedule
// (locally, "0 = run to Halt" is usable; the suite's kernels never
// halt, and a server must not accept a job it can never finish).
func checkBounded(spec sim.RunSpec) error {
	if spec.Insts == 0 && spec.Sampling == nil {
		return fmt.Errorf("unbounded spec %q: a remote run needs insts > 0 or a sampling schedule", spec.Workload)
	}
	return nil
}

func checkRun(spec sim.RunSpec) error {
	if err := runner.ValidateWorkloads([]string{spec.Workload}); err != nil {
		return err
	}
	return checkBounded(spec)
}

func checkMulti(spec sim.MultiSpec) error {
	for i, cs := range spec.Cores {
		// A spec-level sampling schedule bounds every core (the per-core
		// budget is Sampling.Total(); Validate enforces that clauses then
		// carry no Insts of their own).
		cs.Sampling = spec.Sampling
		if err := checkRun(cs); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// checkPipeline: AnalysisSpec.Validate already demands a budget.
func checkPipeline(spec runner.AnalysisSpec) error {
	return runner.ValidateWorkloads([]string{spec.Workload})
}
