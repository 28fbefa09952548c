package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/crispd"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// traceInputs is what the traced cold run of a batch workload hands to
// the per-layer accounting.
type traceInputs struct {
	procs    int
	wall     time.Duration
	h0, h1   hostUsage
	stats    []runner.Stats // one per phase of the cold run
	warm     runner.Stats   // the replay over the warm store
	warmWall float64        // median wall time of a replay, seconds
	entries  []entry
	jobs     []job
	model    map[string]float64
	storeDir string
}

// spanSet answers the questions the per-layer metrics ask of the spans.
type spanSet []span

func (ss spanSet) named(name string) spanSet {
	var out spanSet
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (ss spanSet) seconds() float64 {
	t := 0.0
	for _, s := range ss {
		t += s.dur().Seconds()
	}
	return t
}

func (ss spanSet) count() float64 {
	t := 0.0
	for _, s := range ss {
		t += s.Count
	}
	return t
}

// micros returns the spans' durations in microseconds, sorted.
func (ss spanSet) micros() []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// rate is count per second in millions (Minst/s, MB/s), 0 when idle.
func (ss spanSet) rate() float64 { return ratio(ss.count(), ss.seconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// newWalker returns a walker over a scratch store inside the
// repetition's directory.
func newWalker(ctx context.Context, p params, tr *tracer) (*walker, error) {
	st, err := runner.NewStore(filepath.Join(p.Dir, "walk-store"))
	if err != nil {
		return nil, err
	}
	return &walker{ctx: ctx, tr: tr, st: st,
		an:    map[string]*crisp.Analysis{},
		sets:  map[string]*checkpoint.Set{},
		msets: map[string]*checkpoint.MultiSet{}}, nil
}

// finishTrace fills the metrics every traced run shares (the walk's
// spans, the result counters, the host's usage), checks that the map
// holds exactly the per-layer names, and writes the spans out.
func finishTrace(p params, tr *tracer, root int, res *repResult, entries []entry, h0, h1 hostUsage, m map[string]float64) error {
	spans := spanSet(tr.snapshot())

	builds := spans.named("workload.build")
	m["workload.build_s"] = builds.seconds()
	m["workload.build_count"] = float64(len(builds))
	m["workload.build_alloc_mb"] = builds.count() / 1e6

	m["emu.ff_bare_mips"] = spans.named("emu.ff_bare").rate()
	m["emu.snapshot_us"] = median(spans.named("emu.snapshot").micros())

	m["trace.capture_s"] = spans.named("trace.capture").seconds()
	m["trace.capture_mips"] = spans.named("trace.capture").rate()

	m["crisp.analyze_s"] = spans.named("crisp.analyze").seconds()
	m["crisp.analyze_count"] = float64(len(spans.named("crisp.analyze")))
	m["crisp.apply_s"] = spans.named("crisp.apply").seconds()

	// core: summed over every result the cold run stored.
	var ns, insts, iters, skipped, cycles, allocs float64
	var mns, minsts, mskipped, mcycles float64
	var resultBytes, storeBytes float64
	results := 0
	for _, e := range entries {
		storeBytes += float64(e.Bytes)
		switch r := e.Value.(type) {
		case *core.Result:
			ns += float64(r.HostNS)
			insts += float64(r.Insts)
			iters += float64(r.HostIters)
			skipped += float64(r.SkippedCycles)
			cycles += float64(r.Cycles)
			allocs += float64(r.HostAllocs)
			resultBytes += float64(e.Bytes)
			results++
		case *sim.MultiResult:
			mns += float64(r.HostNS)
			for _, c := range r.Cores {
				minsts += float64(c.Insts)
				mskipped += float64(c.SkippedCycles)
				mcycles += float64(c.Cycles)
			}
		}
	}
	m["core.detail_s"] = ns / 1e9
	m["core.detail_mips"] = ratio(insts, ns) * 1e3
	m["core.ns_per_iter"] = ratio(ns, iters)
	m["core.iters"] = iters
	m["core.skipped_frac"] = ratio(skipped, cycles)
	m["core.allocs_per_kinst"] = ratio(allocs, insts) * 1e3
	m["core.multi_mips"] = ratio(minsts, mns) * 1e3
	m["core.multi_skipped_frac"] = ratio(mskipped, mcycles)
	m["crispd.result_kb"] = ratio(resultBytes, float64(results)) / 1e3
	m["store.bytes_mb"] = storeBytes / 1e6

	m["checkpoint.capture_mips"] = append(spans.named("checkpoint.capture"), spans.named("checkpoint.capture_multi")...).rate()
	m["checkpoint.capture_multi_s"] = spans.named("checkpoint.capture_multi").seconds()
	enc := spans.named("checkpoint.encode")
	m["checkpoint.encode_mbps"] = enc.rate()
	m["checkpoint.decode_mbps"] = spans.named("checkpoint.decode").rate()
	m["checkpoint.set_mb"] = ratio(enc.count(), float64(len(enc))) / 1e6
	m["checkpoint.restore_us"] = median(spans.named("checkpoint.restore").micros())

	m["sim.windows_s"] = spans.named("sim.windows").seconds()
	m["sim.windows_mips"] = spans.named("sim.windows").rate()

	put, get := spans.named("store.put").micros(), spans.named("store.get").micros()
	m["store.put_p50_us"], m["store.put_p99_us"] = percentile(put, 50), percentile(put, 99)
	m["store.get_p50_us"], m["store.get_p99_us"] = percentile(get, 50), percentile(get, 99)
	m["store.put_ckpt_mbps"] = spans.named("store.put_ckpt").rate()
	m["store.get_ckpt_mbps"] = spans.named("store.get_ckpt").rate()
	m["store.lock_us"] = median(spans.named("store.lock").micros())

	m["host.user_cpu_s"] = (h1.user - h0.user).Seconds()
	m["host.sys_cpu_s"] = (h1.sys - h0.sys).Seconds()
	m["host.alloc_gb"] = float64(h1.allocB-h0.allocB) / 1e9
	m["host.gc_cycles"] = float64(h1.gcCycles - h0.gcCycles)
	m["host.gc_pause_ms"] = float64(h1.gcPauseNS-h0.gcPauseNS) / 1e6

	m["bench.trace_overhead_frac"] = 0 // the parent has the untraced run to compare with

	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // the layer is idle on this workload
		}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("bench: traced run produced %d metrics, BENCHMARK.json lists %d", len(m), len(perLayer))
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bench: metric %s is %v", k, v)
		}
		res.Metrics[k] = v
	}
	res.LayerSelfS = selfTimes(spans, root)
	return writeSpans(filepath.Join(p.Dir, "trace.jsonl"), spans)
}

// runnerMetrics derives the runner's numbers from its counters and from
// the task spans its OnEvent hook produced during the cold run.
func runnerMetrics(spans spanSet, stats []runner.Stats, procs int, wall time.Duration, m map[string]float64) {
	for _, st := range stats {
		m["runner.tasks"] += float64(st.Started)
		m["runner.executed"] += float64(st.Executed)
		m["runner.lock_wait_s"] += float64(st.LockWaitNS) / 1e9
		m["checkpoint.capture_s"] += float64(st.CaptureNS) / 1e9
		m["checkpoint.warm_insts"] += float64(st.WarmInsts)
	}
	queued := spans.named("runner.queued").micros()
	m["runner.queue_wait_p50_ms"] = percentile(queued, 50) / 1e3

	// Busy worker-time: over the cold run, the number of running tasks
	// capped at the worker count (a task that computes a dependency
	// in-line holds one token for both).
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "runner.task.") {
			edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
	var busy, last int64
	running := 0
	for _, e := range edges {
		n := running
		if n > procs {
			n = procs
		}
		busy += int64(n) * (e.at - last)
		last, running = e.at, running+e.delta
	}
	m["runner.parallel_eff"] = ratio(float64(busy), float64(wall)*float64(procs))
}

// sampleJobs picks the jobs the layer walk executes: every run and
// co-run of the small job sets, one seed-chosen run per app of the suite.
func sampleJobs(p params, jobs []job) []job {
	var runs []job
	for _, j := range jobs {
		if j.Kind == runner.KindRun || j.Kind == runner.KindMulti {
			runs = append(runs, j)
		}
	}
	if p.Workload != "suite_detail" {
		return runs
	}
	rng := rand.New(rand.NewSource(p.Seed))
	byApp := map[string][]job{}
	var apps []string
	for _, j := range runs {
		if j.Run.Input == sim.InputTrain {
			continue // the analyses' profiling runs are walked inside their analysis
		}
		if len(byApp[j.app()]) == 0 {
			apps = append(apps, j.app())
		}
		byApp[j.app()] = append(byApp[j.app()], j)
	}
	sort.Strings(apps)
	var out []job
	for _, app := range apps {
		out = append(out, byApp[app][rng.Intn(len(byApp[app]))])
	}
	return out
}

func ipcErrPct(sampled, full float64) float64 {
	if full == 0 {
		return 0
	}
	return math.Abs(sampled/full-1) * 100
}

// traceBatch is the traced run's second half for a batch workload: the
// layer walk, the probes, the sampled-vs-full-detail error, and the
// per-layer metrics.
func traceBatch(ctx context.Context, p params, tr *tracer, res *repResult, in traceInputs) error {
	m := map[string]float64{}
	for k, v := range in.model {
		m[k] = v
	}
	runnerMetrics(spanSet(tr.snapshot()), in.stats, in.procs, in.wall, m)
	m["store.disk_hits"] = float64(in.warm.DiskHits)
	m["runner.warm_wall_s"] = in.warmWall
	hit, err := hitLatencies(ctx, p, in.procs, in.storeDir, in.jobs, res)
	if err != nil {
		return err
	}
	m["runner.hit_p50_ms"], m["runner.hit_p99_ms"] = percentile(hit, 50), percentile(hit, 99)

	w, err := newWalker(ctx, p, tr)
	if err != nil {
		return err
	}
	stored := storedByKey(in.entries)
	sample := sampleJobs(p, in.jobs)
	if len(sample) == 0 {
		return fmt.Errorf("bench: nothing to walk")
	}
	root := w.walk(sample, stored, res)
	w.probes(p, sample[0].app(), in.entries)
	if w.err != nil {
		return w.err
	}

	// The model is not validated against hardware, so the one error the
	// benchmark can state is sampled against full detail, on one app and
	// on the co-located pair.
	local, err := runner.New(ctx, runner.Options{Workers: in.procs})
	if err != nil {
		return err
	}
	defer local.Close()
	switch p.Workload {
	case "sampled_sweep":
		s := sampledSchedule(p)
		app := sample[0].app()
		full, err := local.Run(ctx, sim.RunSpec{Workload: app, Insts: s.Total(), Prefetcher: sim.PFStride})
		if err != nil {
			return err
		}
		e, ok := stored[runner.KindRun+"|"+sim.RunSpec{Workload: app, Sampling: &s, Prefetcher: sim.PFStride}.Key()]
		if !ok {
			return fmt.Errorf("bench: no sampled baseline of %s in the store", app)
		}
		m["model.sampled_ipc_err_pct"] = ipcErrPct(e.Value.(*core.Result).IPC(), full.IPC())
	case "colocate":
		// The reference walks the trajectory the capture covered: each
		// core's budget is what the capture executed for it (pace-
		// proportional), so both runs measure the co-located phase; with
		// equal budgets the slow core would drain solo for most of its
		// instructions, which windows do not and should not reproduce.
		s := colocateSchedule(p)
		pair := []sim.RunSpec{{Workload: lcApp, Prefetcher: sim.PFStride}, {Workload: batchApp, Prefetcher: sim.PFStride}}
		e, ok := stored[runner.KindMulti+"|"+sim.MultiSpec{Sampling: &s, Cores: pair}.Key()]
		if !ok || len(w.msets) != 1 {
			return fmt.Errorf("bench: no sampled baseline co-run in the store, or not one capture in the walk")
		}
		ref := sim.MultiSpec{Cores: append([]sim.RunSpec(nil), pair...)}
		for _, set := range w.msets {
			for i := range ref.Cores {
				ref.Cores[i].Insts = set.FFPerCore[i]
			}
		}
		full, err := local.RunMulti(ctx, ref)
		if err != nil {
			return err
		}
		for i, c := range e.Value.(*sim.MultiResult).Cores {
			m["model.multi_sampled_ipc_err_pct"] = max(m["model.multi_sampled_ipc_err_pct"], ipcErrPct(c.IPC(), full.Cores[i].IPC()))
		}
	}
	return finishTrace(p, tr, root, res, in.entries, in.h0, in.h1, m)
}

// servedInputs is what the traced cold run of the served workload hands
// to the per-layer accounting.
type servedInputs struct {
	procs        int
	pool         []sim.RunSpec
	fill, replay []request
	fillWall     time.Duration
	wall         time.Duration
	warmWall     float64 // median wall time of restart + fetch of the pool, seconds
	h0, h1       hostUsage
	statsz       crispd.Statsz
	entries      []entry
	storeDir     string
}

// traceServed is the traced run's second half for the served workload:
// the client-side request spans, the layer walk over a tenth of the
// pool, the probes, and the per-layer metrics.
func traceServed(ctx context.Context, p params, res *repResult, in servedInputs) error {
	base := in.fill[0].start
	tr := newTracer()
	tr.t0 = base
	for _, q := range in.fill {
		tr.add(0, "crispd.miss", q.key, int64(q.start.Sub(base)), int64(q.end.Sub(base)), 0)
	}
	for _, q := range in.replay {
		tr.add(0, "crispd.hit", q.key, int64(q.start.Sub(base)), int64(q.end.Sub(base)), 0)
	}

	m := map[string]float64{}
	runnerMetrics(nil, []runner.Stats{in.statsz.Runner}, in.procs, in.wall, m)
	// The server owns its runner's OnEvent hook, so task spans are not
	// visible from outside; its counters are.
	m["runner.queue_wait_p50_ms"], m["runner.parallel_eff"] = 0, 0
	miss, hit := latencies(in.fill), latencies(in.replay)
	m["crispd.warm_wall_s"] = in.warmWall
	m["crispd.fill_s"] = in.fillWall.Seconds()
	m["crispd.miss_p50_ms"] = percentile(miss, 50)
	m["crispd.miss_p90_ms"] = percentile(miss, 90)
	m["crispd.replay_rps"] = ratio(float64(len(in.replay)), (in.wall - in.fillWall).Seconds())
	m["crispd.hit_p50_ms"], m["crispd.hit_p99_ms"] = percentile(hit, 50), percentile(hit, 99)
	m["crispd.executed"] = float64(in.statsz.Runner.Executed)
	m["crispd.rejected"] = float64(in.statsz.Jobs[string(crispd.StateFailed)])
	for _, q := range append(in.fill, in.replay...) {
		if q.err != nil {
			m["crispd.rejected"]++
		}
	}

	// What a hit costs below crispd: reading the same results straight
	// from the store the server filled.
	st, err := runner.NewStore(in.storeDir)
	if err != nil {
		return err
	}
	var direct []time.Duration
	for _, q := range in.replay[:min(len(in.replay), 2000)] {
		t := time.Now()
		if !st.Get(runner.KindRun, q.key, &core.Result{}) {
			return fmt.Errorf("bench: served result %s is not in the store", q.key)
		}
		direct = append(direct, time.Since(t))
		m["store.disk_hits"]++
	}
	m["crispd.overhead_us"] = (percentile(hit, 50) - percentile(msOf(direct), 50)) * 1e3

	w, err := newWalker(ctx, p, tr)
	if err != nil {
		return err
	}
	var sample []job
	for i := 0; i < len(in.pool); i += 10 {
		sample = append(sample, runJob(in.pool[i]))
	}
	root := w.walk(sample, storedByKey(in.entries), res)
	w.probes(p, sample[0].app(), in.entries)
	if w.err != nil {
		return w.err
	}
	return finishTrace(p, tr, root, res, in.entries, in.h0, in.h1, m)
}
