package workload

import (
	"reflect"
	"runtime"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/sim"
)

// differedBeforePR28 are the twelve kernels this test failed on, in three
// runs of it at the parent commit (adf3cc3), while prefetch.Stream evicted
// in Go map order and crisp's classifiers left ties to it: a cycle count
// that moved between four tries of one binary, or (gcc, lbm, xalancbmk) an
// Analysis whose root lists came out in another order. What -short keeps.
var differedBeforePR28 = map[string]bool{
	"mcf": true, "omnetpp": true, "xalancbmk": true, "moses": true, "memcached": true,
	"gcc": true, "deepsjeng": true, "fotonik": true, "lbm": true, "perlbench": true,
	"xhpcg": true, "streambatch": true,
}

// TestModelReproduces is the determinism proof of PR 28 (ROADMAP 1d): every
// kernel under sim.DefaultConfig — ooo on both inputs; the whole CRISP flow
// (train profile, trace, analysis, tagged ref run) and runtime IBDA on ref —
// gives the same Analysis and the same Results, host fields aside, twice in
// one process and under GOMAXPROCS 1 and 4. The parent commit fails it.
func TestModelReproduces(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Core.MaxInsts = 300_000
	ibdaCfg := ibda.DefaultConfig()
	ibdaRun := cfg.WithSched(core.SchedCRISP)
	ibdaRun.IBDA = &ibdaCfg

	scrub := func(r *core.Result) *core.Result {
		r.HostNS, r.HostAllocs = 0, 0
		return r
	}
	try := func(w *Workload) map[string]any {
		pipe := sim.AnalyzeTrain(w.Build(Train), w.Build(Train), cfg, crisp.DefaultOptions())
		return map[string]any{
			"ooo train": scrub(pipe.Profile),
			"ooo ref":   scrub(sim.Run(w.Build(Ref), cfg)),
			"crisp ref": scrub(sim.Run(pipe.Tagged(w.Build(Ref)), cfg.WithSched(core.SchedCRISP))),
			"ibda ref":  scrub(sim.Run(w.Build(Ref), ibdaRun)),
			"analysis":  pipe.Analysis,
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range All() {
		if testing.Short() && !differedBeforePR28[w.Name] {
			continue
		}
		var first map[string]any
		for i, procs := range []int{1, 1, 4, 4} {
			runtime.GOMAXPROCS(procs)
			got := try(w)
			if i == 0 {
				first = got
				continue
			}
			for what, v := range got {
				if !reflect.DeepEqual(v, first[what]) {
					t.Errorf("%s: %s of try %d (GOMAXPROCS %d) differs from the first try's (%d vs %d cycles)",
						w.Name, what, i+1, procs, cyclesOf(v), cyclesOf(first[what]))
				}
			}
		}
	}
}

// cyclesOf is a run's cycle count, for the message; 0 for the Analysis.
func cyclesOf(v any) uint64 {
	if r, ok := v.(*core.Result); ok {
		return r.Cycles
	}
	return 0
}
