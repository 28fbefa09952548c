package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// job is one request to the runner's front door: a spec of one of the
// four task kinds a client can submit.
type job struct {
	Kind  string // runner.KindRun, KindMulti, KindAnalysis or KindFootprint
	Run   sim.RunSpec
	Multi sim.MultiSpec
	An    runner.AnalysisSpec
}

func runJob(s sim.RunSpec) job     { return job{Kind: runner.KindRun, Run: s} }
func multiJob(s sim.MultiSpec) job { return job{Kind: runner.KindMulti, Multi: s} }

// key is the job's content key, the name its result is stored under.
func (j job) key() string {
	switch j.Kind {
	case runner.KindRun:
		return j.Run.Key()
	case runner.KindMulti:
		return j.Multi.Key()
	default:
		return j.An.Key()
	}
}

// String is the job's kind, key and spec, for failure messages.
func (j job) String() string {
	var spec any = j.An
	switch j.Kind {
	case runner.KindRun:
		spec = j.Run
	case runner.KindMulti:
		spec = j.Multi
	}
	b, err := json.Marshal(spec)
	if err != nil { // unreachable: specs are plain data
		panic(fmt.Sprintf("bench: marshal spec: %v", err))
	}
	return fmt.Sprintf("%s %s %s", j.Kind, j.key(), b)
}

// app names the workload the job simulates (core 0's for a co-run).
func (j job) app() string {
	switch j.Kind {
	case runner.KindRun:
		return j.Run.Workload
	case runner.KindMulti:
		return j.Multi.Cores[0].Workload
	default:
		return j.An.Workload
	}
}

// do resolves the job on r and blocks for its result.
func (j job) do(ctx context.Context, r *runner.Runner) (any, error) {
	switch j.Kind {
	case runner.KindRun:
		return r.Run(ctx, j.Run)
	case runner.KindMulti:
		return r.RunMulti(ctx, j.Multi)
	case runner.KindAnalysis:
		return r.Analysis(ctx, j.An)
	case runner.KindFootprint:
		return r.Footprint(ctx, j.An)
	}
	return nil, fmt.Errorf("bench: unknown job kind %q", j.Kind)
}

// start submits the job to r's pool without waiting.
func (j job) start(r *runner.Runner) {
	switch j.Kind {
	case runner.KindRun:
		r.Submit(j.Run)
	case runner.KindMulti:
		r.SubmitMulti(j.Multi)
	case runner.KindAnalysis:
		r.SubmitAnalysis(j.An)
	case runner.KindFootprint:
		r.SubmitFootprint(j.An)
	}
}

// runJobs submits every job before any resolves, as experiments -all
// does, then waits for each in order and renders one line per result.
func runJobs(ctx context.Context, r *runner.Runner, jobs []job, out *strings.Builder) error {
	for _, j := range jobs {
		j.start(r)
	}
	return waitJobs(ctx, r, jobs, out)
}

// waitJobs waits for each job in order and renders one line per result.
func waitJobs(ctx context.Context, r *runner.Runner, jobs []job, out *strings.Builder) error {
	for _, j := range jobs {
		v, err := j.do(ctx, r)
		if err != nil {
			return fmt.Errorf("%s: %w", j, err)
		}
		fmt.Fprintf(out, "%s %s %s\n", j.Kind, j.key(), simHash(v))
	}
	return nil
}

// scrub returns a copy of a result with the fields that describe the
// host run rather than the simulated machine zeroed: wall time,
// allocations, loop iterations and the idle cycles the loop skipped (the
// last two are exact, but they measure the simulator's skip efficiency,
// not the model's timing — Cycles already includes skipped cycles). An
// analysis lists its roots and slices in an order that follows Go's map
// iteration where miss counts tie, so the copy sorts them; the tagged set
// CriticalPCs, which is what reaches the simulator, is already sorted.
func scrub(v any) any {
	switch r := v.(type) {
	case *crisp.Analysis:
		c := *r
		c.DelinquentLoads = sortedInts(r.DelinquentLoads)
		c.HardBranches = sortedInts(r.HardBranches)
		c.SlowALUs = sortedInts(r.SlowALUs)
		c.Slices = append([]crisp.SliceStats(nil), r.Slices...)
		sort.Slice(c.Slices, func(a, b int) bool {
			if c.Slices[a].RootPC != c.Slices[b].RootPC {
				return c.Slices[a].RootPC < c.Slices[b].RootPC
			}
			return !c.Slices[a].IsBranch && c.Slices[b].IsBranch
		})
		return &c
	case *core.Result:
		c := *r
		c.HostNS, c.HostAllocs, c.HostIters, c.HostFFNS, c.SkippedCycles = 0, 0, 0, 0, 0
		return &c
	case *sim.MultiResult:
		c := *r
		c.HostNS, c.HostFFNS = 0, 0
		c.Cores = make([]*core.Result, len(r.Cores))
		for i, cr := range r.Cores {
			c.Cores[i] = scrub(cr).(*core.Result)
		}
		return &c
	}
	return v
}

func sortedInts(v []int) []int {
	out := append([]int(nil), v...)
	sort.Ints(out)
	return out
}

// simJSON is the canonical encoding of a result's simulated statistics.
func simJSON(v any) []byte {
	b, err := json.Marshal(scrub(v))
	if err != nil { // unreachable: results are plain data
		panic(fmt.Sprintf("bench: marshal result: %v", err))
	}
	return b
}

func simHash(v any) string {
	h := sha256.Sum256(simJSON(v))
	return hex.EncodeToString(h[:8])
}

// entry is one result file of a store directory.
type entry struct {
	Kind, Key string
	Bytes     int64
	Value     any // decoded result; nil for checkpoint sets
}

// readStore decodes every result a run left in its store directory,
// sorted by kind and key. Checkpoint sets are listed with their size
// only. An entry that does not decode is returned with a nil Value and
// reported in bad.
func readStore(dir string) (entries []entry, bad []string, err error) {
	st, err := runner.NewStore(dir)
	if err != nil {
		return nil, nil, err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range files {
		name := f.Name()
		kind, rest, ok := strings.Cut(name, "-")
		key, ext, _ := strings.Cut(rest, ".")
		if !ok || (ext != "json" && ext != "bin") {
			bad = append(bad, "unexpected file left in store: "+name)
			continue
		}
		info, err := f.Info()
		if err != nil {
			return nil, nil, err
		}
		e := entry{Kind: kind, Key: key, Bytes: info.Size()}
		switch v := newResult(kind); {
		case v != nil && st.Get(kind, key, v):
			e.Value = v
		case v != nil:
			bad = append(bad, "store entry does not decode: "+name)
		case kind != runner.KindCkpt && kind != runner.KindMultiCkpt:
			bad = append(bad, "unknown store kind: "+name)
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Kind != entries[b].Kind {
			return entries[a].Kind < entries[b].Kind
		}
		return entries[a].Key < entries[b].Key
	})
	return entries, bad, nil
}

// newResult returns an empty result of the type the store keeps under
// kind, or nil for the kinds that are not JSON (checkpoint sets).
func newResult(kind string) any {
	switch kind {
	case runner.KindRun:
		return &core.Result{}
	case runner.KindMulti:
		return &sim.MultiResult{}
	case runner.KindAnalysis:
		return &crisp.Analysis{}
	case runner.KindFootprint:
		return &crisp.Footprint{}
	}
	return nil
}

// checkResult applies the per-result invariants: the cycle accounting
// partitions every commit slot, and every simulated cycle was either
// stepped or skipped.
func checkResult(e entry) []string {
	width := uint64(sim.DefaultConfig().Core.CommitWidth)
	var cores []*core.Result
	switch r := e.Value.(type) {
	case *core.Result:
		cores = []*core.Result{r}
	case *sim.MultiResult:
		cores = r.Cores
	}
	var bad []string
	for i, r := range cores {
		if r.Insts == 0 || r.Cycles == 0 {
			bad = append(bad, fmt.Sprintf("%s %s core %d: empty result", e.Kind, e.Key, i))
		}
		if got, want := r.Breakdown.Total(), r.Cycles*width; got != want {
			bad = append(bad, fmt.Sprintf("%s %s core %d: breakdown %d != cycles x width %d", e.Kind, e.Key, i, got, want))
		}
		if r.Cycles != r.SkippedCycles+r.HostIters {
			bad = append(bad, fmt.Sprintf("%s %s core %d: cycles %d != skipped %d + iters %d", e.Kind, e.Key, i, r.Cycles, r.SkippedCycles, r.HostIters))
		}
	}
	return bad
}

// reproducible reports whether two executions of the job give the same
// simulated statistics at this commit. Runs under Table 1's bop+stream
// prefetcher do not: the stream prefetcher evicts "one arbitrary entry",
// by Go map iteration, once its 64-region table is full, so cycle counts
// wander from one execution to the next (README.md has measurements).
// An analysis lists tied roots in map order too, but its tagged set is
// stable, so a CRISP run under another prefetcher reproduces.
func (j job) reproducible() bool {
	clauses := j.Multi.Cores
	switch j.Kind {
	case runner.KindRun:
		clauses = []sim.RunSpec{j.Run}
	case runner.KindMulti:
	default:
		return false
	}
	for _, c := range clauses {
		if c.Prefetcher == sim.PFBOPStream {
			return false
		}
	}
	return true
}

// simDigest hashes the kind, content key and simulated statistics of
// every job's result, in key order (jobs come sorted), into two digests:
// pinned over the reproducible jobs, unstable over the others (empty when
// there are none). Two commits that print the same pinned digest for a
// seed computed every simulated statistic of those jobs identically, and
// so must two executions of one commit.
func simDigest(jobs []job, stored map[string]entry) (pinned, unstable string, missing []string) {
	hp, hu := sha256.New(), sha256.New()
	loose := 0
	for _, j := range jobs {
		e, ok := stored[j.Kind+"|"+j.key()]
		if !ok || e.Value == nil {
			missing = append(missing, fmt.Sprintf("no stored result for %s", j))
			continue
		}
		h := hp
		if !j.reproducible() {
			h = hu
			loose++
		}
		fmt.Fprintf(h, "%s %s ", e.Kind, e.Key)
		h.Write(simJSON(e.Value))
		h.Write([]byte{'\n'})
	}
	if loose > 0 {
		unstable = hex.EncodeToString(hu.Sum(nil))
	}
	return hex.EncodeToString(hp.Sum(nil)), unstable, missing
}

func storedByKey(entries []entry) map[string]entry {
	m := make(map[string]entry, len(entries))
	for _, e := range entries {
		m[e.Kind+"|"+e.Key] = e
	}
	return m
}

// recorder is a runner.Remote that notes every spec a client submits and
// resolves it on an inner runner. A runner built over it turns any
// front end — harness.Lab included, which hides its handles — into the
// flat list of jobs behind it.
type recorder struct {
	inner *runner.Runner
	mu    sync.Mutex
	jobs  []job
}

func (rc *recorder) note(j job) {
	rc.mu.Lock()
	rc.jobs = append(rc.jobs, j)
	rc.mu.Unlock()
}

func (rc *recorder) Run(ctx context.Context, s sim.RunSpec) (*core.Result, error) {
	rc.note(runJob(s))
	return rc.inner.Run(ctx, s)
}

func (rc *recorder) RunMulti(ctx context.Context, s sim.MultiSpec) (*sim.MultiResult, error) {
	rc.note(multiJob(s))
	return rc.inner.RunMulti(ctx, s)
}

func (rc *recorder) Analysis(ctx context.Context, s runner.AnalysisSpec) (*crisp.Analysis, error) {
	rc.note(job{Kind: runner.KindAnalysis, An: s})
	return rc.inner.Analysis(ctx, s)
}

func (rc *recorder) Footprint(ctx context.Context, s runner.AnalysisSpec) (*crisp.Footprint, error) {
	rc.note(job{Kind: runner.KindFootprint, An: s})
	return rc.inner.Footprint(ctx, s)
}

// sorted returns the recorded jobs in key order (recording order depends
// on goroutine scheduling).
func (rc *recorder) sorted() []job {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	jobs := append([]job(nil), rc.jobs...)
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Kind != jobs[b].Kind {
			return jobs[a].Kind < jobs[b].Kind
		}
		return jobs[a].key() < jobs[b].key()
	})
	return jobs
}
