package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names, units, directions and bounds; bench_test.go fails when
// the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd are the metrics a user of the simulator sees. All are host
// time or host memory; every one is defined, and never zero, on every
// workload. failed_frac is not in the list because it must be exactly 0:
// the benchmark reports it as the attempted/failed counts instead. The
// three times are in reference seconds (ref.go): measured seconds times
// the run's reference factor. As measured, on the 2-vCPU sandbox this was
// written on, they differ by up to 42% between two sets of runs of one
// commit an hour apart, which no bound allows (README.md has the
// measurements). Warm replay time and request latency spread by more
// than any bound allows either way, which is why those are per-layer
// metrics (runner.warm_wall_s, runner.hit_*, crispd.warm_wall_s,
// crispd.hit_*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ref_s", "s", "lower", 0.25},
	{"cpu_ref_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// sampleOf names the child's samples (repResult.Samples) each end-to-end
// metric is made of. Those in seconds are multiplied by the reference
// factor; ref_s is the reference kernel's own time.
var sampleOf = map[string]string{
	"setup_s": "setup_s", "wall_ref_s": "wall_s", "cpu_ref_s": "cpu_s", "peak_rss_mb": "peak_rss_mb",
}

// asMeasured are the samples a run also prints unscaled.
var asMeasured = []metricDef{
	{"ref_s", "s", "lower", 0},
	{"setup_s", "s", "lower", 0},
	{"wall_s", "s", "lower", 0},
	{"cpu_s", "s", "lower", 0},
}

// perLayer are the traced run's metrics, one group per module of the
// repo. A layer that a workload leaves idle reports 0 there. Names
// starting with "model." are simulated time; everything else is host
// time, host memory or an exact count.
var perLayer = []metricDef{
	{"workload.build_s", "s", "lower", 0},
	{"workload.build_count", "count", "lower", 0},
	{"workload.build_alloc_mb", "MB", "lower", 0},

	{"emu.ff_bare_mips", "Minst/s", "higher", 0},
	{"emu.snapshot_us", "us", "lower", 0},

	{"trace.capture_s", "s", "lower", 0},
	{"trace.capture_mips", "Minst/s", "higher", 0},

	{"crisp.analyze_s", "s", "lower", 0},
	{"crisp.analyze_count", "count", "lower", 0},
	{"crisp.apply_s", "s", "lower", 0},

	{"core.detail_s", "s", "lower", 0},
	{"core.detail_mips", "Minst/s", "higher", 0},
	{"core.ns_per_iter", "ns", "lower", 0},
	{"core.iters", "count", "lower", 0},
	{"core.skipped_frac", "ratio", "higher", 0},
	{"core.allocs_per_kinst", "1/kinst", "lower", 0},
	{"core.multi_mips", "Minst/s", "higher", 0},
	{"core.multi_skipped_frac", "ratio", "higher", 0},

	{"checkpoint.capture_s", "s", "lower", 0},
	{"checkpoint.capture_mips", "Minst/s", "higher", 0},
	{"checkpoint.warm_insts", "count", "lower", 0},
	{"checkpoint.encode_mbps", "MB/s", "higher", 0},
	{"checkpoint.decode_mbps", "MB/s", "higher", 0},
	{"checkpoint.set_mb", "MB", "lower", 0},
	{"checkpoint.restore_us", "us", "lower", 0},
	{"checkpoint.capture_multi_s", "s", "lower", 0},

	{"sim.windows_s", "s", "lower", 0},
	{"sim.windows_mips", "Minst/s", "higher", 0},

	{"runner.tasks", "count", "lower", 0},
	{"runner.executed", "count", "lower", 0},
	{"runner.queue_wait_p50_ms", "ms", "lower", 0},
	{"runner.parallel_eff", "ratio", "higher", 0},
	{"runner.lock_wait_s", "s", "lower", 0},
	{"runner.warm_wall_s", "s", "lower", 0},
	{"runner.hit_p50_ms", "ms", "lower", 0},
	{"runner.hit_p99_ms", "ms", "lower", 0},

	{"store.put_p50_us", "us", "lower", 0},
	{"store.put_p99_us", "us", "lower", 0},
	{"store.get_p50_us", "us", "lower", 0},
	{"store.get_p99_us", "us", "lower", 0},
	{"store.put_ckpt_mbps", "MB/s", "higher", 0},
	{"store.get_ckpt_mbps", "MB/s", "higher", 0},
	{"store.lock_us", "us", "lower", 0},
	{"store.disk_hits", "count", "higher", 0},
	{"store.bytes_mb", "MB", "lower", 0},

	{"crispd.fill_s", "s", "lower", 0},
	{"crispd.miss_p50_ms", "ms", "lower", 0},
	{"crispd.miss_p90_ms", "ms", "lower", 0},
	{"crispd.replay_rps", "1/s", "higher", 0},
	{"crispd.warm_wall_s", "s", "lower", 0},
	{"crispd.hit_p50_ms", "ms", "lower", 0},
	{"crispd.hit_p99_ms", "ms", "lower", 0},
	{"crispd.overhead_us", "us", "lower", 0},
	{"crispd.result_kb", "kB", "lower", 0},
	{"crispd.rejected", "count", "lower", 0},
	{"crispd.executed", "count", "lower", 0},

	{"host.user_cpu_s", "s", "lower", 0},
	{"host.sys_cpu_s", "s", "lower", 0},
	{"host.alloc_gb", "GB", "lower", 0},
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},

	{"model.fig7_crisp_gain_pct", "%", "higher", 0},
	{"model.fig7_ibda_gain_pct", "%", "higher", 0},
	{"model.sampled_ipc_err_pct", "%", "lower", 0},
	{"model.multi_sampled_ipc_err_pct", "%", "lower", 0},

	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// summary is one metric over the samples of a run.
type summary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median,
// the quantity the bounds are compared with.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(def metricDef, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the acceptance rule computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile is the nearest-rank percentile of already sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
