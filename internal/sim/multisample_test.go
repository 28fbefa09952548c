package sim_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// colocatePair builds the co-location acceptance images: tailchase (the
// latency-critical service loop) on core 0 — tagged for CRISP when tag
// is set — and streambatch (the bandwidth hog) on core 1.
func colocatePair(tag *sim.Pipeline) []*sim.Image {
	lead := workload.ByName("tailchase").Build(workload.Ref)
	if tag != nil {
		lead = tag.Tagged(lead)
	}
	return []*sim.Image{lead, workload.ByName("streambatch").Build(workload.Ref)}
}

// TestMultiSampledEquivalence pins the co-scheduled sampled path's
// accuracy: per-core IPC must reproduce the full-detail lockstep run
// within 3% on the colocate acceptance pair under both the OOO baseline
// and CRISP on the LC core. The 3% bar is then mutation-verified: the
// same windows restored from a deliberately unwarmed shared LLC must
// blow the bar, proving the tolerance is tight enough to notice the
// co-residency warming the capture exists to provide.
func TestMultiSampledEquivalence(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-detail reference runs are slow")
	}
	s := sim.AutoSampling(2_000_000)
	lc := workload.ByName("tailchase")
	acfg := sim.DefaultConfig()
	acfg.Core.MaxInsts = s.Total()
	pipe := sim.AnalyzeTrain(lc.Build(workload.Train), lc.Build(workload.Train), acfg, crisp.DefaultOptions())

	for _, tc := range []struct {
		name  string
		sched core.SchedulerKind
		pipe  *sim.Pipeline
	}{
		{"ooo", core.SchedOldestFirst, nil},
		{"crisp", core.SchedCRISP, pipe},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfgs := []sim.Config{sim.DefaultConfig().WithSched(tc.sched), sim.DefaultConfig()}

			set, err := sim.CaptureMultiCheckpointsContext(context.Background(), colocatePair(tc.pipe), cfgs, s)
			if err != nil {
				t.Fatal(err)
			}

			// The full-detail reference walks the same pace-proportional
			// trajectory the capture covered: per-core budgets equal to the
			// capture's per-core functional coverage, so both runs measure
			// the co-located phase end to end (equal budgets would leave the
			// slow core draining solo for most of its instructions — a
			// regime short windows cannot and should not reproduce).
			fcfgs := make([]sim.Config, len(cfgs))
			for i := range cfgs {
				fcfgs[i] = cfgs[i]
				fcfgs[i].Core.MaxInsts = set.FFPerCore[i]
			}
			full, err := sim.RunMultiContext(context.Background(), colocatePair(tc.pipe), fcfgs)
			if err != nil {
				t.Fatal(err)
			}
			imgs := colocatePair(tc.pipe)
			progs := []*program.Program{imgs[0].Prog, imgs[1].Prog}
			samp, err := sim.RunMultiSampledContext(context.Background(), set, progs, cfgs, s)
			if err != nil {
				t.Fatal(err)
			}
			for i := range full.Cores {
				errPct := (samp.Cores[i].IPC()/full.Cores[i].IPC() - 1) * 100
				t.Logf("core %d: full IPC %.4f sampled %.4f err %+.2f%%",
					i, full.Cores[i].IPC(), samp.Cores[i].IPC(), errPct)
				if math.Abs(errPct) > 3.0 {
					t.Errorf("core %d sampled IPC error %+.2f%% exceeds 3%% (full %.4f, sampled %.4f)",
						i, errPct, full.Cores[i].IPC(), samp.Cores[i].IPC())
				}
			}

			// Mutation pass: cool every point's shared LLC and re-run the
			// same windows. If the equivalence bar still passed, the 3%
			// tolerance would be too loose to catch a broken warming path.
			for _, pt := range set.Points {
				for _, v := range pt.Variants {
					v.Hier.LLC.Invalidate()
				}
			}
			cold, err := sim.RunMultiSampledContext(context.Background(), set, progs, cfgs, s)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for i := range full.Cores {
				errPct := math.Abs((cold.Cores[i].IPC()/full.Cores[i].IPC() - 1) * 100)
				if errPct > worst {
					worst = errPct
				}
			}
			if worst <= 3.0 {
				t.Errorf("unwarmed-LLC mutant still within tolerance (worst core err %.2f%%); the equivalence bar is not sensitive to shared-LLC warming", worst)
			}
		})
	}
}

// multiSmallSchedule keeps the structural multi-core sampled tests fast.
var multiSmallSchedule = sim.Sampling{Warm: 20_000, Window: 5_000, Count: 3}

func captureMultiSmall(t *testing.T) (*checkpoint.Set, []*program.Program, []sim.Config) {
	t.Helper()
	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	set, err := sim.CaptureMultiCheckpointsContext(context.Background(), colocatePair(nil), cfgs, multiSmallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	imgs := colocatePair(nil)
	return set, []*program.Program{imgs[0].Prog, imgs[1].Prog}, cfgs
}

// TestMultiCaptureTimesCalibration: a co-scheduled set's HostNS is the
// whole capture call, pace calibration included. On this small schedule
// calibration is most of the call, so the real capture alone reads low.
func TestMultiCaptureTimesCalibration(t *testing.T) {
	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	imgs := colocatePair(nil)
	start := time.Now()
	set, err := sim.CaptureMultiCheckpointsContext(context.Background(), imgs, cfgs, multiSmallSchedule)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	if set.HostNS > wall || set.HostNS < wall*3/4 {
		t.Errorf("set HostNS %d ns, want the call's %d ns", set.HostNS, wall)
	}
}

// TestSampledWrongShapeIsAnError: a set restores only windows of its own
// shape. A two-core set handed to the one-core run, and a prefetcher tuple
// the set warmed no variant for, are errors, not panics.
func TestSampledWrongShapeIsAnError(t *testing.T) {
	set, progs, cfgs := captureMultiSmall(t)
	if _, err := sim.RunSampledContext(context.Background(), set, progs[0], cfgs[0], multiSmallSchedule); err == nil {
		t.Error("a two-core set restored one-core windows")
	}
	stride := []sim.Config{cfgs[0], cfgs[1]}
	stride[1].Prefetcher = sim.PFStride
	if _, err := sim.RunMultiSampledContext(context.Background(), set, progs, stride, multiSmallSchedule); err == nil || !strings.Contains(err.Error(), "no variant") {
		t.Errorf("a set warmed for bop+stream on both cores restored stride on core 1: error %v", err)
	}
}

// zeroHost clears the wall-clock fields so deterministic comparisons can
// use DeepEqual on everything simulated.
func zeroHost(m *sim.MultiResult) {
	m.HostNS, m.HostFFNS = 0, 0
	for _, r := range m.Cores {
		r.HostNS, r.HostAllocs = 0, 0
	}
}

// TestMultiSampledCodecRoundTrip pins the binary multi-set container: an
// encode/decode cycle must reproduce a set whose sampled run is
// simulated-quantity-identical to the original's, including the shared
// LLC/DRAM attribution the container's interleaved warming produced.
func TestMultiSampledCodecRoundTrip(t *testing.T) {
	set, progs, cfgs := captureMultiSmall(t)
	const key = "roundtrip-key"
	data := checkpoint.EncodeSet(set, key)
	got, err := checkpoint.DecodeSet(data, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != set.Cores || len(got.Points) != len(set.Points) ||
		got.FFInsts != set.FFInsts || got.Points[0].Variants["bop+stream,bop+stream"] == nil ||
		!reflect.DeepEqual(got.FFPerCore, set.FFPerCore) ||
		!reflect.DeepEqual(got.Pace, set.Pace) ||
		!reflect.DeepEqual(got.WindowInsts, set.WindowInsts) {
		t.Fatalf("decoded set metadata differs: %+v vs %+v", got, set)
	}
	a, err := sim.RunMultiSampledContext(context.Background(), set, progs, cfgs, multiSmallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunMultiSampledContext(context.Background(), got, progs, cfgs, multiSmallSchedule); err == nil || !strings.Contains(err.Error(), "not attached") {
		t.Fatalf("run over an unattached set: error %v, want a refusal", err)
	}
	imgs := colocatePair(nil)
	if err := got.Attach(imgs[1].Mem, imgs[0].Mem); err == nil {
		t.Fatal("the two cores' images attached the wrong way round")
	}
	if err := got.Attach(imgs[0].Mem, imgs[1].Mem); err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunMultiSampledContext(context.Background(), got, progs, cfgs, multiSmallSchedule)
	if err != nil {
		t.Fatal(err)
	}
	zeroHost(a)
	zeroHost(b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("decoded set's run diverged: cycles %d/%d vs %d/%d, llc %+v vs %+v",
			a.Cores[0].Cycles, a.Cores[1].Cycles, b.Cores[0].Cycles, b.Cores[1].Cycles, a.LLC, b.LLC)
	}
	if _, err := checkpoint.DecodeSet(data, "other-key"); err == nil {
		t.Error("key mismatch not rejected")
	}
	data[len(data)-1] ^= 0x40
	if _, err := checkpoint.DecodeSet(data, key); err == nil {
		t.Error("corrupt payload not rejected")
	}
}

// TestMultiSampledParallelMatchesSequential pins the window fan-out: the
// lockstep windows are independent (no core runs IBDA), so the
// window-index-order merge of GOMAXPROCS 4 workers must reproduce the
// one-worker run exactly — per-core results and shared-level stats alike.
func TestMultiSampledParallelMatchesSequential(t *testing.T) {
	set, progs, cfgs := captureMultiSmall(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) *sim.MultiResult {
		runtime.GOMAXPROCS(procs)
		m, err := sim.RunMultiSampledContext(context.Background(), set, progs, cfgs, multiSmallSchedule)
		if err != nil {
			t.Fatal(err)
		}
		zeroHost(m)
		return m
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel sampled multi run diverged from sequential:\n  core0 cycles %d vs %d\n  core1 cycles %d vs %d\n  llc %+v vs %+v",
			seq.Cores[0].Cycles, par.Cores[0].Cycles,
			seq.Cores[1].Cycles, par.Cores[1].Cycles, seq.LLC, par.LLC)
	}
}

// TestMultiSampledSharedSet exercises the sharing property the capture
// keying promises: one set serves every scheduler config of the same
// workload/prefetcher tuple, and the per-core budgets and provenance
// fields come out right.
func TestMultiSampledSharedSet(t *testing.T) {
	set, progs, cfgs := captureMultiSmall(t)
	var results []*sim.MultiResult
	for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedRandom} {
		c := []sim.Config{cfgs[0].WithSched(sched), cfgs[1]}
		m, err := sim.RunMultiSampledContext(context.Background(), set, progs, c, multiSmallSchedule)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, m)
		for i, r := range m.Cores {
			// Each core's window budget is the schedule's Window scaled by
			// its calibrated pace, so committed instructions are the
			// pace-scaled budget times the window count.
			want := set.WindowInsts[i] * uint64(multiSmallSchedule.Count)
			if r.Insts != want {
				t.Errorf("%v core %d committed %d insts, want %d", sched, i, r.Insts, want)
			}
			if r.SampledWindows != multiSmallSchedule.Count || r.FFInsts != set.FFPerCore[i] {
				t.Errorf("%v core %d provenance: windows %d ff %d", sched, i, r.SampledWindows, r.FFInsts)
			}
		}
		if m.SampledWindows != multiSmallSchedule.Count || m.FFInsts != set.FFInsts || m.HostFFNS != set.HostNS {
			t.Errorf("%v aggregate provenance: %d windows ff %d ffns %d", sched, m.SampledWindows, m.FFInsts, m.HostFFNS)
		}
	}
	if results[0].Cores[0].Cycles == results[1].Cores[0].Cycles {
		t.Error("random scheduler produced identical core-0 cycles to oldest-first")
	}
}

// TestMultiSampledRejections pins the clean-error paths: geometry
// mismatch and prefetcher-tuple mismatch (the tuple is part of the
// capture) reject instead of running wrong.
func TestMultiSampledRejections(t *testing.T) {
	set, progs, cfgs := captureMultiSmall(t)

	bad := []sim.Config{cfgs[0], cfgs[1]}
	bad[1].Hier.L1D.SizeKiB *= 2
	if _, err := sim.RunMultiSampledContext(context.Background(), set, progs, bad, multiSmallSchedule); err == nil {
		t.Error("geometry mismatch not rejected")
	}

	pfm := []sim.Config{cfgs[0], cfgs[1]}
	pfm[1].Prefetcher = sim.PFNone
	if _, err := sim.RunMultiSampledContext(context.Background(), set, progs, pfm, multiSmallSchedule); err == nil {
		t.Error("prefetcher tuple mismatch not rejected")
	}

	if _, err := sim.CaptureMultiCheckpointsContext(context.Background(), colocatePair(nil), []sim.Config{sim.DefaultConfig()}, multiSmallSchedule); err == nil {
		t.Error("image/config count mismatch not rejected")
	}
}

// TestMultiSpecSamplingValidateAndKey pins the spec surface: where the
// schedule may live, which clause features it excludes, and that it is
// part of the content key.
func TestMultiSpecSamplingValidateAndKey(t *testing.T) {
	s := sim.Sampling{Warm: 200, Window: 300, Count: 4}
	clause := func(name string) sim.RunSpec {
		return sim.RunSpec{Workload: name, Input: sim.InputRef}
	}
	good := sim.MultiSpec{Cores: []sim.RunSpec{clause("tailchase"), clause("streambatch")}, Sampling: &s}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid sampled multi spec rejected: %v", err)
	}

	perCore := good
	perCore.Cores = append([]sim.RunSpec(nil), good.Cores...)
	perCore.Cores[1].Sampling = &s
	withInsts := good
	withInsts.Cores = append([]sim.RunSpec(nil), good.Cores...)
	withInsts.Cores[0].Insts = 1000
	withIBDA := good
	withIBDA.Cores = append([]sim.RunSpec(nil), good.Cores...)
	withIBDA.Cores[0] = withIBDA.Cores[0].WithIBDA(ibda.Config{ISTEntries: 1024, ISTWays: 4, DLTEntries: 32})
	noWindow := good
	noWindow.Sampling = &sim.Sampling{Count: 4}
	for name, spec := range map[string]sim.MultiSpec{
		"per-core sampling clause": perCore,
		"clause insts budget":      withInsts,
		"runtime ibda clause":      withIBDA,
		"zero window":              noWindow,
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
	}

	fullDetail := sim.MultiSpec{Cores: []sim.RunSpec{clause("tailchase"), clause("streambatch")}}
	fullDetail.Cores[0].Insts = s.Total()
	fullDetail.Cores[1].Insts = s.Total()
	other := good
	other.Sampling = &sim.Sampling{Warm: 200, Window: 300, Count: 5}
	keys := map[string]string{
		"sampled":      good.Key(),
		"full detail":  fullDetail.Key(),
		"other window": other.Key(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collide on key %s", name, prev, k)
		}
		seen[k] = name
	}
}
