package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crisp/internal/runner"
)

// opCount counts operations: delivered results and their checks.
type opCount struct {
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"` // the first few messages
}

// op counts one operation; any message marks it failed.
func (c *opCount) op(bad ...string) {
	c.Ops++
	if len(bad) == 0 {
		return
	}
	c.Failed++
	if len(c.Failures) < 20 {
		c.Failures = append(c.Failures, bad...)
	}
}

// add folds another count into c.
func (c *opCount) add(o opCount) {
	c.Ops += o.Ops
	c.Failed += o.Failed
	c.Failures = append(c.Failures, o.Failures...)
}

// repResult is what one child process reports to the parent.
type repResult struct {
	opCount
	// Metrics are the first execution's wall_s, cpu_s and peak_rss_mb and,
	// in a traced run, the per-layer metrics. Samples are what the
	// end-to-end metrics are made of, as measured: one setup_s, a wall_s
	// and a cpu_s per timed repetition, the peak_rss_mb at the end of the
	// last, and a ref_s before the first execution, before every
	// repetition and after the last.
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Digest is over the jobs whose results reproduce, DigestUnstable over
	// the rest (empty when there are none): see simDigest.
	Digest         string `json:"sim_digest"`
	DigestUnstable string `json:"sim_digest_unstable,omitempty"`
	// LayerSelfS is the layer walk's self time by layer (traced runs).
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
}

func newRepResult() *repResult {
	return &repResult{Metrics: map[string]float64{}, Samples: map[string][]float64{}}
}

// reference times the reference kernel (ref.go) in a process that makes
// timed repetitions, records the sample, and returns the seconds it took.
func (r *repResult) reference(p params, procs int) float64 {
	if p.Reps == 0 {
		return 0
	}
	t := time.Now()
	r.Samples["ref_s"] = append(r.Samples["ref_s"], refTime(procs))
	return time.Since(t).Seconds()
}

// finish closes the timed repetitions: a last reference sample, so that
// every repetition has one before and one after it, and the peak memory.
func (r *repResult) finish(p params, procs int) {
	if p.Reps == 0 {
		return
	}
	settle()
	r.reference(p, procs)
	r.Samples["peak_rss_mb"] = []float64{float64(readHost().maxRSSKB) / 1024}
}

// procs is min(nproc, 4): the benchmark describes a small host.
func procs() int { return min(runtime.NumCPU(), 4) }

// setProcs pins GOMAXPROCS to procs(); every worker and client count
// follows from it.
func setProcs() int {
	runtime.GOMAXPROCS(procs())
	return procs()
}

// hostUsage is the process's resource use so far.
type hostUsage struct {
	user, sys time.Duration
	maxRSSKB  int64
	allocB    uint64
	gcCycles  uint32
	gcPauseNS uint64
}

func readHost() hostUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUsage{
		user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano()),
		maxRSSKB: int64(ru.Maxrss),
		allocB:   ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs,
	}
}

// coldMetrics fills in the first execution's times and peak memory.
func coldMetrics(m map[string]float64, wall time.Duration, h0, h1 hostUsage) {
	m["wall_s"] = wall.Seconds()
	m["cpu_s"] = (h1.user - h0.user + h1.sys - h0.sys).Seconds()
	m["peak_rss_mb"] = float64(h1.maxRSSKB) / 1024
}

// sinceUnix is the time since a Unix-nanosecond stamp of another process.
func sinceUnix(t0 int64) float64 { return float64(time.Now().UnixNano()-t0) / 1e9 }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// checkStore decodes everything the run left in its store and applies
// the per-result invariants, one operation per result.
func (r *repResult) checkStore(dir string) ([]entry, error) {
	entries, bad, err := readStore(dir)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		r.op(b)
	}
	for _, e := range entries {
		if e.Value != nil {
			r.op(checkResult(e)...)
		}
	}
	return entries, nil
}

// sameDigest is one operation: a repetition's stored results hash to the
// first execution's sim_digest.
func (r *repResult) sameDigest(jobs []job, entries []entry) {
	switch d, _, missing := simDigest(jobs, storedByKey(entries)); {
	case len(missing) > 0:
		r.op(missing...)
	case d != r.Digest:
		r.op(fmt.Sprintf("sim_digest %s differs from the first execution's %s", d, r.Digest))
	default:
		r.op()
	}
}

// digest sets the digests over the jobs' stored results.
func (r *repResult) digest(jobs []job, entries []entry) {
	var missing []string
	r.Digest, r.DigestUnstable, missing = simDigest(jobs, storedByKey(entries))
	for _, m := range missing {
		r.op(m)
	}
}

// batchRun is one execution of a batch workload's whole job set.
type batchRun struct {
	wall   time.Duration
	h0, h1 hostUsage
	out    string         // the rendered results
	stats  []runner.Stats // per phase
}

// runBatch executes every phase, each on a fresh runner, against the
// store the previous ones left in storeDir, starting from an empty one.
// first is a runner made beforehand for the first phase, or nil.
func runBatch(ctx context.Context, phases []phase, newRunner func(string) (*runner.Runner, error), first *runner.Runner, storeDir string, model map[string]float64) (*batchRun, error) {
	x := &batchRun{}
	var out strings.Builder
	x.h0 = readHost()
	t0 := time.Now()
	for i, ph := range phases {
		r := first
		if i > 0 || r == nil {
			var err error
			if r, err = newRunner(storeDir); err != nil {
				return nil, err
			}
		}
		if err := ph.run(ctx, r, &out, model); err != nil {
			return nil, err
		}
		x.stats = append(x.stats, r.Stats())
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	x.wall = time.Since(t0)
	x.h1 = readHost()
	x.out = out.String()
	return x, nil
}

// checkCaptures is one operation per phase: it captured the number of
// checkpoint sets an empty store calls for, and no more.
func (r *repResult) checkCaptures(phases []phase, stats []runner.Stats) {
	for i, st := range stats {
		if st.CkptCaptured != phases[i].captures {
			r.op(fmt.Sprintf("phase %d captured %d checkpoint sets, want %d", i, st.CkptCaptured, phases[i].captures))
		} else {
			r.op()
		}
	}
}

// sample records one timed repetition's wall and CPU time.
func (r *repResult) sample(wall time.Duration, h0, h1 hostUsage) {
	r.Samples["wall_s"] = append(r.Samples["wall_s"], wall.Seconds())
	r.Samples["cpu_s"] = append(r.Samples["cpu_s"], (h1.user - h0.user + h1.sys - h0.sys).Seconds())
}

// batchRep runs a batch workload in this process. The first execution of
// the job set, against an empty store, is the one a user's cold
// `experiments -all` makes: its time is part of setup_s, it is checked
// result by result, replayed against the store it left, and, in a traced
// run, followed by the layer walk and the probes. The timed repetitions
// that follow (p.Reps) each execute the job set again, on fresh runners
// against another empty store, in a process whose heap the first
// execution has grown: they are what wall_s and cpu_s are the medians of.
func batchRep(p params) (*repResult, error) {
	procs := setProcs()
	phases, err := batchPhases(p)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(p.Dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	var tr *tracer
	if p.Trace {
		tr = newTracer()
	}
	newRunner := func(dir string) (*runner.Runner, error) {
		opts := runner.Options{Workers: procs, CacheDir: dir}
		if tr != nil {
			opts.OnEvent = tr.onEvent
		}
		return runner.New(ctx, opts)
	}
	res := newRepResult()
	refSpent := res.reference(p, procs)
	r, err := newRunner(storeDir)
	if err != nil {
		return nil, err
	}
	model := map[string]float64{}
	first, err := runBatch(ctx, phases, newRunner, r, storeDir, model)
	if err != nil {
		return nil, fmt.Errorf("first execution: %w", err)
	}
	res.Samples["setup_s"] = []float64{sinceUnix(p.T0) - refSpent}
	coldMetrics(res.Metrics, first.wall, first.h0, first.h1)
	res.checkCaptures(phases, first.stats)
	entries, err := res.checkStore(storeDir)
	if err != nil {
		return nil, err
	}

	// replay runs every phase on one fresh runner over the warm store.
	replay := func(opts runner.Options) (string, runner.Stats, time.Duration, error) {
		t := time.Now()
		opts.Workers = procs
		wr, err := runner.New(ctx, opts)
		if err != nil {
			return "", runner.Stats{}, 0, err
		}
		var out strings.Builder
		for _, ph := range phases {
			if err := ph.run(ctx, wr, &out, nil); err != nil {
				return "", runner.Stats{}, 0, fmt.Errorf("warm replay: %w", err)
			}
		}
		return out.String(), wr.Stats(), time.Since(t), wr.Close()
	}
	// checkReplay is one operation: the replay rendered what the first
	// execution rendered, byte for byte, and simulated nothing.
	checkReplay := func(what, out string, st runner.Stats) {
		switch {
		case out != first.out:
			res.op(what + " rendered different results than the first execution")
		case st.Executed != 0 || st.CkptCaptured != 0:
			res.op(fmt.Sprintf("%s simulated %d runs and captured %d sets over a warm store", what, st.Executed, st.CkptCaptured))
		default:
			res.op()
		}
	}

	// The flat job list, recovered by replaying once through a recording
	// Remote (harness.Lab does not expose the specs it submits).
	inner, err := runner.New(ctx, runner.Options{Workers: procs, CacheDir: storeDir})
	if err != nil {
		return nil, err
	}
	rec := &recorder{inner: inner}
	out, _, _, err := replay(runner.Options{Remote: rec})
	if err != nil {
		return nil, err
	}
	warmStats := inner.Stats()
	if err := inner.Close(); err != nil {
		return nil, err
	}
	checkReplay("recorded replay", out, warmStats)
	jobs := rec.sorted()
	res.digest(jobs, entries)

	// The timed repetitions. Each starts from a collected heap, as the
	// first execution did, so that the collector's pace does not depend on
	// where the previous one left its goal.
	var longest time.Duration
	for n := 0; p.more(n, longest); n++ {
		t := settle()
		res.reference(p, procs)
		dir := filepath.Join(p.Dir, fmt.Sprint("rep", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		x, err := runBatch(ctx, phases, newRunner, nil, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", n, err)
		}
		res.sample(x.wall, x.h0, x.h1)
		res.checkCaptures(phases, x.stats)
		again, err := res.checkStore(dir)
		if err != nil {
			return nil, err
		}
		res.sameDigest(jobs, again)
		removeAll(dir)
		longest = max(longest, time.Since(t))
	}
	res.finish(p, procs)
	if !p.Trace {
		return res, nil
	}

	var warm []float64
	for start := settle(); moreReplays(p, len(warm), start); {
		out, st, d, err := replay(runner.Options{CacheDir: storeDir})
		if err != nil {
			return nil, err
		}
		checkReplay("warm replay", out, st)
		warm = append(warm, d.Seconds())
	}
	return res, traceBatch(ctx, p, tr, res, traceInputs{
		procs: procs, wall: first.wall, h0: first.h0, h1: first.h1, stats: first.stats, warm: warmStats, warmWall: median(warm),
		entries: entries, jobs: jobs, model: model, storeDir: storeDir,
	})
}

// settle collects the garbage of what ran before and returns the time
// the next part starts. A warm replay is a new process in real use, with
// no gigabyte of dead images for the collector to walk in the middle of
// 30 ms; a timed repetition starts, as a new process does, with the
// collector's goal at its floor.
func settle() time.Time {
	runtime.GC()
	return time.Now()
}

// moreReplays reports whether the warm phase needs another replay: at
// least 20, and more while they are short (up to a second's worth), so
// that the median of a millisecond-sized replay rests on enough of them.
func moreReplays(p params, done int, start time.Time) bool {
	return done < p.count(20, 3) || (time.Since(start).Seconds() < p.Scale && done < p.count(400, 3))
}

// hitLatencies measures, in milliseconds, single requests for already
// stored results through runner.Run, the path a re-run of experiments
// takes per result: a closed loop of procs callers over the job list, on
// a fresh runner per pass (a runner memoizes, so each can be asked for a
// key once), until there are enough samples for a 99th percentile.
func hitLatencies(ctx context.Context, p params, procs int, storeDir string, jobs []job, res *repResult) ([]float64, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("bench: no jobs recorded")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	want := p.count(4000, 40)
	var all []time.Duration
	for len(all) < want {
		r, err := runner.New(ctx, runner.Options{Workers: procs, CacheDir: storeDir})
		if err != nil {
			return nil, err
		}
		order := rng.Perm(len(jobs))
		lat := make([]time.Duration, len(jobs))
		errs := make([]error, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					t := time.Now()
					_, errs[i] = jobs[order[i]].do(ctx, r)
					lat[i] = time.Since(t)
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				res.op(fmt.Sprintf("warm request %s: %v", jobs[order[i]].key(), err))
			} else {
				res.op()
			}
		}
		if st := r.Stats(); st.Executed != 0 {
			res.op(fmt.Sprintf("warm requests simulated %d runs", st.Executed))
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		all = append(all, lat...)
	}
	return msOf(all), nil
}
