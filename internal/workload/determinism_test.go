package workload

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/program"
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

// sharedShort are the kernels -short keeps of TestSimKeySharesOnlyEqualRuns,
// so that every check still has a case that bites: at 40k instructions
// omnetpp's five options give three tag sets and lbm's two, none empty;
// mcf's branch-only, nab's load-only and all five of bwaves' tag nothing;
// an 8-entry IST moves omnetpp's, lbm's and bwaves' results, not mcf's or
// nab's.
var sharedShort = map[string]bool{"mcf": true, "omnetpp": true, "lbm": true, "bwaves": true, "nab": true}

// TestSimKeySharesOnlyEqualRuns is the proof behind sim.RunSpec.SimKey,
// which the runner simulates once per: for every kernel, at the suite's
// 40k instructions under Table 1's bop+stream, runs through sim.Run (never
// the runner, whose sharing would prove itself) that get one SimKey get
// DeepEqual Results, host fields aside, and the three rewrites give one
// key where they should: (a) the five CRISP options of Figures 7, 8 and 10
// wherever two of them tag the same PCs, (b) the CRISP scheduler on the
// untagged program and OOO, (c) IBDA at 1K/4, 8K/8 and 64K/16 and ∞. The
// converses keep their own keys: different tag sets, IBDA under the OOO
// scheduler, and an 8-entry 2-way IST on a kernel longer than 8
// instructions (d), which for some kernel gives another result than ∞.
// Mutations this fails under: SimKey without the capacity check (d),
// without the tags (two tag sets, one key) or without rule 2's IBDA guard
// (IBDA's run under CRISP and under OOO, one key, two results). Then the
// same for co-runs (coRunsShareOnlyEqualRuns).
func TestSimKeySharesOnlyEqualRuns(t *testing.T) {
	const insts = 40_000
	opts := map[string]crisp.Options{}
	for name, edit := range map[string]func(*crisp.Options){
		"default":     func(*crisp.Options) {},
		"load-only":   func(o *crisp.Options) { o.BranchSlices = false },
		"branch-only": func(o *crisp.Options) { o.LoadSlices = false },
		"T=5%":        func(o *crisp.Options) { o.MissShareThreshold = 0.05 },
		"T=0.2%":      func(o *crisp.Options) { o.MissShareThreshold = 0.002 },
	} {
		o := crisp.DefaultOptions()
		edit(&o)
		opts[name] = o
	}
	ibdaSizes := map[string][2]int{"1K": {1024, 4}, "8K": {8192, 8}, "64K": {65536, 16}, "inf": {0, 0}, "8": {8, 2}}

	type run struct {
		key string
		res *core.Result
	}
	evicted, untagged := false, false
	for _, w := range All() {
		if testing.Short() && !sharedShort[w.Name] {
			continue
		}
		base := sim.RunSpec{Workload: w.Name, Insts: insts}
		runs := map[string]run{}
		simulate := func(what string, spec sim.RunSpec, img *sim.Image) {
			cfg, err := spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			key := spec.SimKey(img.Prog)
			res := sim.Run(img, cfg)
			res.HostNS, res.HostAllocs = 0, 0
			runs[what] = run{key, res}
		}

		simulate("ooo", base, w.Build(Ref))
		crispSched := base
		crispSched.Sched = sim.SchedCRISP
		simulate("crisp untagged", crispSched, w.Build(Ref))
		train := base
		train.Input = sim.InputTrain
		simulate("ooo train", train, w.Build(Train))
		prof := runs["ooo train"].res
		tr := sim.CaptureTrace(w.Build(Train), insts)
		tags := map[string][]int{}
		for name, o := range opts {
			a := crisp.Analyze(prof, tr, w.Build(Train).Prog, o)
			img := w.Build(Ref)
			img.Prog = a.Apply(img.Prog)
			tags[name] = img.Prog.CriticalPCs()
			simulate("crisp "+name, base.WithCrisp(o), img)
		}
		for name, size := range ibdaSizes {
			simulate("ibda "+name, base.WithIBDA(ibda.Config{ISTEntries: size[0], ISTWays: size[1], DLTEntries: 32}), w.Build(Ref))
		}
		ibdaOOO := base.WithIBDA(ibda.Config{DLTEntries: 32})
		ibdaOOO.Sched = sim.SchedOOO
		simulate("ibda inf under ooo", ibdaOOO, w.Build(Ref))

		// One key, one result.
		for a, ra := range runs {
			for b, rb := range runs {
				if a < b && ra.key == rb.key && !reflect.DeepEqual(ra.res, rb.res) {
					t.Errorf("%s: %s and %s share a SimKey but not a result (%d vs %d cycles)", w.Name, a, b, ra.res.Cycles, rb.res.Cycles)
				}
			}
		}
		// (a) One tag set, one key; two tag sets, two keys.
		for a := range opts {
			for b := range opts {
				if a >= b {
					continue
				}
				sameTags := reflect.DeepEqual(tags[a], tags[b])
				if sameKey := runs["crisp "+a].key == runs["crisp "+b].key; sameKey != sameTags {
					t.Errorf("%s: crisp %s and %s: same tags %v, same SimKey %v", w.Name, a, b, sameTags, sameKey)
				}
			}
			if len(tags[a]) == 0 {
				untagged = true
				if runs["crisp "+a].key != runs["ooo"].key {
					t.Errorf("%s: crisp %s tags nothing but does not share OOO's SimKey", w.Name, a)
				}
			}
		}
		// (b) The CRISP scheduler with nothing to prioritise.
		if runs["crisp untagged"].key != runs["ooo"].key {
			t.Errorf("%s: the CRISP scheduler on the untagged program does not share OOO's SimKey", w.Name)
		}
		if runs["ibda inf under ooo"].key == runs["ibda inf"].key {
			t.Errorf("%s: IBDA under the OOO scheduler shares IBDA's SimKey", w.Name)
		}
		// (c) ISTs that hold the whole program, and (d) one that does not.
		inf := runs["ibda inf"]
		for _, name := range []string{"1K", "8K", "64K"} {
			if runs["ibda "+name].key != inf.key {
				t.Errorf("%s: IBDA-%s does not share IBDA-∞'s SimKey on %d static instructions", w.Name, name, w.Build(Ref).Prog.Len())
			}
		}
		if small := runs["ibda 8"]; w.Build(Ref).Prog.Len() > 8 {
			if small.key == inf.key {
				t.Errorf("%s: an 8-entry IST shares IBDA-∞'s SimKey on %d static instructions", w.Name, w.Build(Ref).Prog.Len())
			}
			if !reflect.DeepEqual(small.res, inf.res) {
				evicted = true
			}
		}
	}
	if !evicted {
		t.Error("no kernel's result moved with an 8-entry IST: the capacity check is untested")
	}
	if !untagged {
		t.Error("every option tagged something on every kernel: rule 2 is untested through CRISP")
	}
	coRunsShareOnlyEqualRuns(t, insts, opts)
}

// coRunsShareOnlyEqualRuns is the co-run half of
// TestSimKeySharesOnlyEqualRuns. The runner keys a co-run's simulation by
// its cores' SimKeys (after its set's key, when sampled), so 2-core
// tailchase+streambatch co-runs whose core keys agree must give DeepEqual
// MultiResults, host fields aside: through sim.RunMultiContext at insts per
// core, and through sim.RunMultiSampledContext over one set captured for
// the pair (never through the runner). The rows move one core off OOO:
// tailchase under the CRISP scheduler, untagged and under each option, and
// streambatch under IBDA at 1K, ∞ and 8 entries and under OOO (an 8-entry
// IST moves a co-run through streambatch's 54 instructions, not through
// tailchase's 29). Every check bites on this one pair, so -short keeps it:
// the CRISP scheduler on untagged tailchase, the branch-only option (which
// tags nothing there) and IBDA-1K each share another row's key, the other
// options' tags give tailchase a key of its own, and the 8-entry IST moves
// both co-runs. The pair has one non-empty tag set, so it leaves two tag
// sets under one key to the single-core half. Mutations this half fails
// under: SimKey without the capacity check, or without rule 2's IBDA guard.
func coRunsShareOnlyEqualRuns(t *testing.T, insts uint64, opts map[string]crisp.Options) {
	ctx := context.Background()
	lc, batch := ByName("tailchase"), ByName("streambatch")
	ooo := [2]sim.RunSpec{{Workload: lc.Name, Insts: insts}, {Workload: batch.Name, Insts: insts}}
	config := func(spec sim.RunSpec) sim.Config {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	// A row is a co-run's two clauses and, for a CRISP option, the analysis
	// that tags core 0.
	type row struct {
		specs [2]sim.RunSpec
		a     *crisp.Analysis
	}
	rows := map[string]row{"ooo": {specs: ooo}}
	untagged := ooo
	untagged[0].Sched = sim.SchedCRISP
	rows["crisp untagged"] = row{specs: untagged}
	train := ooo[0]
	train.Input = sim.InputTrain
	prof := sim.Run(lc.Build(Train), config(train))
	tr := sim.CaptureTrace(lc.Build(Train), insts)
	for name, o := range opts {
		r := row{specs: ooo, a: crisp.Analyze(prof, tr, lc.Build(Train).Prog, o)}
		r.specs[0] = r.specs[0].WithCrisp(o)
		rows["crisp "+name] = r
	}
	for name, size := range map[string][2]int{"1K": {1024, 4}, "inf": {0, 0}, "8": {8, 2}} {
		r := row{specs: ooo}
		r.specs[1] = r.specs[1].WithIBDA(ibda.Config{ISTEntries: size[0], ISTWays: size[1], DLTEntries: 32})
		rows["ibda "+name] = r
	}
	r := rows["ibda inf"]
	r.specs[1].Sched = sim.SchedOOO
	rows["ibda inf under ooo"] = r

	// No warming: streambatch's IBDA marks nothing in windows over a warmed
	// hierarchy, and so could not show an IST size there.
	s := sim.Sampling{Skip: 20_000, Window: 20_000, Count: 2}
	set, err := sim.CaptureMultiCheckpointsContext(ctx, []*sim.Image{lc.Build(Ref), batch.Build(Ref)},
		[]sim.Config{config(ooo[0]), config(ooo[1])}, s)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]func([]*sim.Image, []sim.Config) (*sim.MultiResult, error){
		"full detail": func(imgs []*sim.Image, cfgs []sim.Config) (*sim.MultiResult, error) {
			return sim.RunMultiContext(ctx, imgs, cfgs)
		},
		"sampled": func(imgs []*sim.Image, cfgs []sim.Config) (*sim.MultiResult, error) {
			return sim.RunMultiSampledContext(ctx, set, []*program.Program{imgs[0].Prog, imgs[1].Prog}, cfgs, s)
		},
	}

	type run struct {
		key string
		res *sim.MultiResult
	}
	for mode, simulate := range modes {
		runs := map[string]run{}
		for name, r := range rows {
			imgs := []*sim.Image{lc.Build(Ref), batch.Build(Ref)}
			if r.a != nil {
				imgs[0].Prog = r.a.Apply(imgs[0].Prog)
			}
			key := r.specs[0].SimKey(imgs[0].Prog) + "|" + r.specs[1].SimKey(imgs[1].Prog)
			res, err := simulate(imgs, []sim.Config{config(r.specs[0]), config(r.specs[1])})
			if err != nil {
				t.Fatal(err)
			}
			res.HostNS, res.HostFFNS = 0, 0
			for _, c := range res.Cores {
				c.HostNS, c.HostAllocs, c.HostFFNS = 0, 0, 0
			}
			runs[name] = run{key, res}
		}
		// One key, one result.
		for a, ra := range runs {
			for b, rb := range runs {
				if a < b && ra.key == rb.key && !reflect.DeepEqual(ra.res, rb.res) {
					t.Errorf("%s co-run: %s and %s share a key but not a result (%d vs %d cycles on core 0)",
						mode, a, b, ra.res.Cores[0].Cycles, rb.res.Cores[0].Cycles)
				}
			}
		}
		if runs["crisp untagged"].key != runs["ooo"].key {
			t.Errorf("%s co-run: the CRISP scheduler on untagged core 0 does not share OOO's key", mode)
		}
		tagSets := map[string]bool{}
		for a := range opts {
			tags := rows["crisp "+a].a.CriticalPCs
			if same := runs["crisp "+a].key == runs["ooo"].key; same != (len(tags) == 0) {
				t.Errorf("%s co-run: crisp %s tags %d PCs on core 0, shares OOO's key: %v", mode, a, len(tags), same)
			}
			tagSets[fmt.Sprint(tags)] = true
			for b := range opts {
				sameTags := reflect.DeepEqual(tags, rows["crisp "+b].a.CriticalPCs)
				if sameKey := runs["crisp "+a].key == runs["crisp "+b].key; a < b && sameKey != sameTags {
					t.Errorf("%s co-run: crisp %s and %s: same tags %v, same key %v", mode, a, b, sameTags, sameKey)
				}
			}
		}
		if !tagSets["[]"] || len(tagSets) < 2 {
			t.Errorf("%s co-run: the options give tailchase the tag sets %v at %d instructions, want none and some", mode, tagSets, insts)
		}
		inf := runs["ibda inf"]
		if runs["ibda 1K"].key != inf.key {
			t.Errorf("%s co-run: IBDA-1K on core 1 does not share IBDA-∞'s key", mode)
		}
		if small := runs["ibda 8"]; small.key == inf.key || reflect.DeepEqual(small.res, inf.res) {
			t.Errorf("%s co-run: an 8-entry IST on core 1 shares IBDA-∞'s key (%v) or its result (%v)",
				mode, small.key == inf.key, reflect.DeepEqual(small.res, inf.res))
		}
		if runs["ibda inf under ooo"].key == inf.key {
			t.Errorf("%s co-run: IBDA under the OOO scheduler shares IBDA's key", mode)
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
