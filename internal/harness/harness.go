// Package harness drives the paper's experiments: one driver per table
// and figure of the evaluation (Section 5), producing aligned-text and
// CSV tables. Figures are spec generators: each builds the flat set of
// sim.RunSpec / runner.AnalysisSpec jobs behind its rows and submits
// them to the Lab's shared runner immediately, so every requested
// figure's work interleaves on one saturated worker pool with duplicate
// runs (shared OOO baselines, shared train profiles) executed once.
package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/runner"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Columns []string // first column is the row label
	Rows    []Row
	Notes   []string
}

// Row is one line of a Table.
type Row struct {
	Label string
	Cells []float64
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-14s", t.Columns[0])
	for _, c := range t.Columns[1:] {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, " %12.3f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMeanGain returns the geometric mean of (1+cell/100) minus 1, in
// percent, over the given column index — the "average speedup" the paper
// quotes.
func (t *Table) GeoMeanGain(col int) float64 {
	prod := 1.0
	n := 0
	for _, r := range t.Rows {
		if col < len(r.Cells) {
			prod *= 1 + r.Cells[col]/100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (math.Pow(prod, 1/float64(n)) - 1) * 100
}

// Pending is a figure whose simulations have been submitted to the
// shared runner but not yet resolved. Building several Pendings before
// resolving any lets all their jobs share the pool; Table then only
// waits and formats.
type Pending struct {
	resolve func(ctx context.Context) (*Table, error)
}

// Table blocks until every submitted job behind the figure resolves and
// returns the formatted result. It fails on cancellation, timeout, or an
// invalid spec (for example an unknown workload name).
func (p *Pending) Table(ctx context.Context) (*Table, error) { return p.resolve(ctx) }

// MustTable is Table with a background context, panicking on error —
// for tests and examples where specs are known-good.
func (p *Pending) MustTable() *Table {
	t, err := p.Table(context.Background())
	if err != nil {
		panic(err)
	}
	return t
}

// rowSource is one pending row: a label plus a resolver that waits on
// the row's submitted jobs and produces its cells.
type rowSource struct {
	label string
	cells func(ctx context.Context) ([]float64, error)
}

// pending assembles a Pending that resolves rows in order into t and
// then runs finish (for notes derived from the resolved table).
func pending(t *Table, rows []rowSource, finish func(*Table)) *Pending {
	return &Pending{resolve: func(ctx context.Context) (*Table, error) {
		for _, rs := range rows {
			cells, err := rs.cells(ctx)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Row{Label: rs.label, Cells: cells})
		}
		if finish != nil {
			finish(t)
		}
		return t, nil
	}}
}

// Lab generates experiment specs over one shared runner. All figures
// built from the same Lab dedupe their runs against each other.
type Lab struct {
	Cfg   sim.Config // Table 1 configuration (rendered by Table1)
	Insts uint64     // instruction budget per timing run
	// Only, when non-empty, restricts suite figures to these workloads
	// (used by tests and quick runs).
	Only []string
	// HostNotes enables wall-clock footnotes on figures that have them
	// (nondeterministic, so golden comparisons leave it off).
	HostNotes bool
	// R is the shared executor.
	R *runner.Runner
}

// NewLab returns a Lab over the Table 1 configuration with the given
// per-run instruction budget and a private in-memory runner.
func NewLab(insts uint64) *Lab {
	r, err := runner.New(context.Background(), runner.Options{})
	if err != nil { // unreachable: no cache dir
		panic(err)
	}
	return NewLabWithRunner(insts, r)
}

// NewLabWithRunner returns a Lab submitting to an existing runner (the
// commands use this to share one pool, cache and context across figures).
func NewLabWithRunner(insts uint64, r *runner.Runner) *Lab {
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = insts
	return &Lab{Cfg: cfg, Insts: insts, R: r}
}

// refSpec is the OOO baseline on the ref input under the Table 1 system.
func (l *Lab) refSpec(name string) sim.RunSpec {
	return sim.RunSpec{Workload: name, Input: sim.InputRef, Sched: sim.SchedOOO, Insts: l.Insts}
}

// crispSpec is the tagged CRISP run on the ref input.
func (l *Lab) crispSpec(name string, opts crisp.Options) sim.RunSpec {
	return l.refSpec(name).WithCrisp(opts)
}

// ibdaSpec is the runtime-IBDA run on the ref input.
func (l *Lab) ibdaSpec(name string, istEntries, istWays int) sim.RunSpec {
	return l.refSpec(name).WithIBDA(ibda.Config{ISTEntries: istEntries, ISTWays: istWays, DLTEntries: 32})
}

// analysisSpec is the software pipeline on the train input.
func (l *Lab) analysisSpec(name string, opts crisp.Options) runner.AnalysisSpec {
	return runner.AnalysisSpec{Workload: name, Insts: l.Insts, Opts: opts}
}

// Analyze runs (or joins) the CRISP software pipeline for a workload.
func (l *Lab) Analyze(w *workload.Workload, opts crisp.Options) *crisp.Analysis {
	a, err := l.R.Analysis(context.Background(), l.analysisSpec(w.Name, opts))
	if err != nil {
		panic(err) // unreachable for registered workloads on an uncancelled runner
	}
	return a
}

// Baseline runs (or joins) the OOO baseline on the ref input. Concurrent
// callers with the same workload share a single execution (the runner's
// per-key single flight).
func (l *Lab) Baseline(w *workload.Workload) *core.Result {
	r, err := l.R.Run(context.Background(), l.refSpec(w.Name))
	if err != nil {
		panic(err)
	}
	return r
}

// RunCRISP runs (or joins) the tagged CRISP configuration on the ref
// input under the pipeline options.
func (l *Lab) RunCRISP(w *workload.Workload, opts crisp.Options) *core.Result {
	r, err := l.R.Run(context.Background(), l.crispSpec(w.Name, opts))
	if err != nil {
		panic(err)
	}
	return r
}

// RunIBDA runs (or joins) the runtime-IBDA configuration on the ref
// input. istEntries <= 0 means an unbounded IST.
func (l *Lab) RunIBDA(w *workload.Workload, istEntries, istWays int) *core.Result {
	r, err := l.R.Run(context.Background(), l.ibdaSpec(w.Name, istEntries, istWays))
	if err != nil {
		panic(err)
	}
	return r
}

// gain returns the IPC improvement of r over base in percent.
func gain(r, base *core.Result) float64 { return (r.IPC()/base.IPC() - 1) * 100 }

// HostThroughputNote formats the cumulative speed of the detailed
// simulations the Lab's runner has executed (runner.Stats DetailNS and
// DetailInsts) as a table footnote, so every figure records how fast the
// runs behind it were simulated. It returns "" before any run. Results
// served from the store or a server, or shared with another spec, add
// nothing here.
func (l *Lab) HostThroughputNote() string {
	s := l.R.Stats()
	if s.DetailNS == 0 {
		return ""
	}
	return fmt.Sprintf("host throughput: %.2f simulated MIPS cumulative (%d insts)",
		float64(s.DetailInsts)*1e3/float64(s.DetailNS), s.DetailInsts)
}

// suite returns the workload names a figure should cover.
func (l *Lab) suite() []string {
	if len(l.Only) > 0 {
		return l.Only
	}
	return SuiteNames()
}

// SuiteNames returns the evaluation applications (the Fig 7 x-axis): all
// workloads except the microbenchmark and the multi-core co-location
// pair (which exist for the Colocate figure, not the single-core suite).
func SuiteNames() []string {
	var names []string
	for _, w := range workload.All() {
		switch w.Name {
		case "pointerchase", "tailchase", "streambatch":
			continue
		}
		names = append(names, w.Name)
	}
	return names
}
