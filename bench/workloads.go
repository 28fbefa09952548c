package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"crisp/internal/crisp"
	"crisp/internal/harness"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// workloadDef is one benchmark workload and the reason it exists
// (BENCHMARK.json carries the same two strings).
type workloadDef struct {
	Name, Why string
}

var workloadDefs = []workloadDef{
	{"suite_detail", "the paper's single-core figures in full detail over all 16 apps through harness.Lab: core's cycle loop, crisp/trace analysis and workload.Build do the work; checkpoint, emu and crispd are idle"},
	{"sampled_sweep", "8 apps under AutoSampling: part A captures, encodes and stores 8 checkpoint sets, part B restores them in a fresh runner; the only place emu, checkpoint, codec and checkpoint store I/O carry time"},
	{"colocate", "2- and 4-core lockstep co-runs in full detail plus a sampled 2-core sweep sharing one capture: few long jobs through RunMulti and the shared LLC/DRAM; guards the single/multi-core unification"},
	{"served", "an in-process crispd server on loopback: closed-loop clients fill an empty store with many small specs, then replay Zipf-distributed hits; per-job fixed cost, JSON, fsync and HTTP dominate"},
}

// params is everything one child process needs. The parent passes it as
// JSON.
type params struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"` // multiplies instruction budgets and request counts: 1 outside tests
	Apps     int     `json:"apps"`  // when > 0, caps each workload's app list (tests)
	Trace    bool    `json:"trace"` // record spans, replay warm, walk the layers, probe the store
	// Reps is the least number of timed repetitions that follow the first
	// execution of the job set; 0 (the traced run) stops after the first.
	// Past Reps the process goes on repeating while one more, as long as
	// the longest so far, still ends before Deadline (Unix ns; 0 = never).
	Reps     int    `json:"reps"`
	Deadline int64  `json:"deadline"`
	Dir      string `json:"dir"` // scratch directory of this process
	T0       int64  `json:"t0"`  // parent's clock just before it started the child, Unix ns
}

// more reports whether the process makes another timed repetition after
// done of them, the longest of which (checks included) took longest.
func (p params) more(done int, longest time.Duration) bool {
	if done < p.Reps {
		return true
	}
	return p.Reps > 0 && p.Deadline != 0 && time.Now().Add(longest*11/10).UnixNano() < p.Deadline
}

// budget scales a base instruction count and moves it along a per-seed
// ladder of 41 steps spanning ±0.5%: enough that every seed has its own
// content keys, so no seed is served from another's results, and little
// enough that the work, and so the timings, compare across seeds.
func (p params) budget(base uint64) uint64 {
	n := float64(base) * p.Scale
	step := ((p.Seed%41)+41)%41 - 20
	return uint64(n * (1 + float64(step)/4000))
}

// count scales a request or repetition count, keeping at least min.
func (p params) count(base, min int) int {
	n := int(float64(base) * p.Scale)
	if n < min {
		n = min
	}
	return n
}

// apps returns names capped by p.Apps: the last ones, because both app
// lists start with mcf, whose image costs the most to build.
func (p params) apps(names []string) []string {
	if p.Apps > 0 && p.Apps < len(names) {
		return names[len(names)-p.Apps:]
	}
	return names
}

// shuffled returns v in seed-shuffled order. Only the workloads with
// hundreds of short jobs submit in shuffled order: where a few long jobs
// share two workers, the order decides which of them overlap, and so the
// makespan and the peak memory, and the seed would be a scheduling
// lottery (on sampled_sweep it moved peak RSS by 20%).
func shuffled[T any](rng *rand.Rand, v []T) []T {
	out := append([]T(nil), v...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sweepApps are the apps of the sampled sweep and of the served pool:
// the suite's pointer chasers, streamers and services.
var sweepApps = []string{"mcf", "xalancbmk", "moses", "lbm", "omnetpp", "bwaves", "xhpcg", "memcached"}

// phase is one part of a batch workload's job set. Each phase of the cold
// run gets a fresh runner over the shared store, which is what lets a
// later phase find an earlier one's checkpoint sets on disk rather than
// in memory.
type phase struct {
	// run submits the phase's whole job set to r, waits for it, and
	// renders the results into out. model, when non-nil, receives the
	// simulated-time metrics the results support.
	run func(ctx context.Context, r *runner.Runner, out *strings.Builder, model map[string]float64) error
	// captures is the number of checkpoint sets the phase must capture
	// on an empty store.
	captures int64
}

func flatPhase(jobs []job, captures int64) phase {
	return phase{captures: captures,
		run: func(ctx context.Context, r *runner.Runner, out *strings.Builder, _ map[string]float64) error {
			return runJobs(ctx, r, jobs, out)
		}}
}

// batchPhases generates a batch workload's job set from the seed.
func batchPhases(p params) ([]phase, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	switch p.Workload {
	case "suite_detail":
		return suiteDetail(p, rng), nil
	case "sampled_sweep":
		return sampledSweep(p), nil
	case "colocate":
		return colocate(p), nil
	}
	return nil, fmt.Errorf("bench: %q is not a batch workload", p.Workload)
}

// suiteDetail is the single-core evaluation: the figures of the paper
// that one scheduler/threshold sweep over the suite produces. Figure 9
// and the prefetcher study are left out to fit the run-time cap; they
// re-run the same code over other RS/ROB sizes and prefetchers, which
// sampled_sweep part B and served cover.
//
// The figures run under Table 1's bop+stream prefetcher, whose results do
// not reproduce (see job.reproducible). So that this workload too pins
// simulated statistics of the detailed core over all 16 apps, the
// baseline also runs under the GHB prefetcher at two window sizes, and
// those runs carry the checked sim_digest.
func suiteDetail(p params, rng *rand.Rand) []phase {
	apps := shuffled(rng, p.apps(harness.SuiteNames()))
	insts := p.budget(40_000)
	var pinned []job
	for _, app := range apps {
		base := sim.RunSpec{Workload: app, Insts: insts, Prefetcher: sim.PFGHB}
		small := base
		small.RS, small.ROB = 64, 128
		pinned = append(pinned, runJob(base), runJob(small))
	}
	type figure struct {
		name string
		make func(*harness.Lab) *harness.Pending
	}
	figs := shuffled(rng, []figure{
		{"4", (*harness.Lab).Figure4},
		{"7", (*harness.Lab).Figure7},
		{"8", (*harness.Lab).Figure8},
		{"10", (*harness.Lab).Figure10},
		{"11", (*harness.Lab).Figure11},
		{"12", (*harness.Lab).Figure12},
		{"cycles", (*harness.Lab).CycleAccounting},
	})
	return []phase{{run: func(ctx context.Context, r *runner.Runner, out *strings.Builder, model map[string]float64) error {
		lab := harness.NewLabWithRunner(insts, r)
		lab.Only = apps
		pend := make([]*harness.Pending, len(figs))
		for i, f := range figs {
			pend[i] = f.make(lab)
		}
		for _, j := range pinned {
			j.start(r)
		}
		for i, pd := range pend {
			t, err := pd.Table(ctx)
			if err != nil {
				return fmt.Errorf("figure %s: %w", figs[i].name, err)
			}
			out.WriteString(t.Format())
			if figs[i].name == "7" && model != nil {
				model["model.fig7_crisp_gain_pct"] = t.GeoMeanGain(0)
				model["model.fig7_ibda_gain_pct"] = t.GeoMeanGain(1)
			}
		}
		return waitJobs(ctx, r, pinned, out)
	}}}
}

// sampledSchedule is the sweep's schedule for this seed.
func sampledSchedule(p params) sim.Sampling { return sim.AutoSampling(p.budget(2_000_000)) }

// sampledSweep: part A sweeps two schedulers per app on an empty store,
// so each app's checkpoint set is captured, encoded and stored once;
// part B sweeps a window size and a prefetcher in a fresh runner, so
// each set is read back, decoded and restored, and nothing is captured.
//
// Like every spec this file writes itself, the sweep runs over the
// stride prefetcher, not Table 1's bop+stream, so that its results
// reproduce and sim_digest can be checked (see job.reproducible).
func sampledSweep(p params) []phase {
	apps := p.apps(sweepApps)
	s := sampledSchedule(p)
	var a, b []job
	for _, app := range apps {
		base := sim.RunSpec{Workload: app, Sampling: &s, Prefetcher: sim.PFStride}
		random := base
		random.Sched = sim.SchedRandom
		small := base
		small.RS, small.ROB = 64, 128
		nopf := base
		nopf.Prefetcher = sim.PFNone
		a = append(a, runJob(base), runJob(random))
		b = append(b, runJob(small), runJob(nopf))
	}
	return []phase{flatPhase(a, int64(len(apps))), flatPhase(b, 0)}
}

const lcApp, batchApp = "tailchase", "streambatch"

// colocateSchedule is the sampled co-run schedule for this seed.
func colocateSchedule(p params) sim.Sampling { return sim.AutoSampling(p.budget(1_800_000)) }

// colocate: the latency-critical chaser and the batch streamer alternate
// over 2 and 4 cores, with core 0 under the baseline and under CRISP, in
// full detail; then four sampled 2-core configs that differ only in
// scheduler and window size, so one co-scheduled capture serves all.
func colocate(p params) []phase {
	insts := p.budget(600_000)
	opts := crisp.DefaultOptions()
	var jobs []job
	for _, n := range []int{4, 2} { // longest first
		for _, tagged := range []bool{false, true} {
			m := sim.MultiSpec{}
			for c := 0; c < n; c++ {
				app := lcApp
				if c%2 == 1 {
					app = batchApp
				}
				cs := sim.RunSpec{Workload: app, Insts: insts, Prefetcher: sim.PFStride}
				if c == 0 && tagged {
					cs = cs.WithCrisp(opts)
				}
				m.Cores = append(m.Cores, cs)
			}
			jobs = append(jobs, multiJob(m))
		}
	}
	s := colocateSchedule(p)
	for _, tagged := range []bool{false, true} {
		for _, small := range []bool{false, true} {
			lc := sim.RunSpec{Workload: lcApp, Prefetcher: sim.PFStride}
			if tagged {
				lc = lc.WithCrisp(opts)
			}
			if small {
				lc.RS, lc.ROB = 64, 128
			}
			jobs = append(jobs, multiJob(sim.MultiSpec{Sampling: &s,
				Cores: []sim.RunSpec{lc, {Workload: batchApp, Prefetcher: sim.PFStride}}}))
		}
	}
	return []phase{flatPhase(jobs, 1)}
}

// servedPool is the pool of distinct small specs the served workload's
// clients request: apps x prefetchers x {baseline, CRISP}.
func servedPool(p params, rng *rand.Rand) []sim.RunSpec {
	insts := p.budget(40_000)
	opts := crisp.DefaultOptions()
	var pool []sim.RunSpec
	for _, app := range p.apps(sweepApps) {
		for _, pf := range []sim.PrefetcherKind{sim.PFStride, sim.PFGHB, sim.PFNone} {
			s := sim.RunSpec{Workload: app, Insts: insts, Prefetcher: pf}
			pool = append(pool, s, s.WithCrisp(opts))
		}
	}
	return shuffled(rng, pool)
}
