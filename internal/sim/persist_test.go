package sim_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// TestSampledFromDecodedSet pins the property the persistent checkpoint
// store depends on: a set serialized to disk and decoded back must
// drive the sampled simulator to *exactly* the results of the in-RAM
// set — same cycles, same histograms, same per-PC profiles — across
// workloads and schedulers, read-only (mcf) and writing (moses,
// streambatch) alike. Any drift here would let a warm-store sweep
// silently disagree with a cold one. A decoded set is a delta over the
// workload image: until it is attached to one it must fail the run, not
// run the windows over the few pages it holds. The writing workloads ran
// under GHB while bop+stream's table evicted in map order on them (before
// PR 28); streambatch still does, so that the GHB variant is decoded too.
func TestSampledFromDecodedSet(t *testing.T) {
	for name, pf := range map[string]sim.PrefetcherKind{
		"pointerchase": sim.PFBOPStream, "mcf": sim.PFBOPStream, "moses": sim.PFBOPStream, "streambatch": sim.PFGHB,
	} {
		w := workload.ByName(name)
		set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), smallSchedule)
		if err != nil {
			t.Fatal(err)
		}
		enc := checkpoint.EncodeSet(set, "equiv-test")
		dec, err := checkpoint.DecodeSet(enc, "equiv-test")
		if err != nil {
			t.Fatalf("%s: DecodeSet: %v", name, err)
		}
		prog := w.Build(workload.Ref).Prog
		if _, err := sim.RunSampledContext(context.Background(), dec, prog, sim.DefaultConfig(), smallSchedule); err == nil || !strings.Contains(err.Error(), "not attached") {
			t.Fatalf("%s: run over an unattached set: error %v, want a refusal", name, err)
		}
		if err := dec.Attach(w.Build(workload.Train).Mem); err == nil {
			t.Fatalf("%s: the train image attached to a set captured over the ref image", name)
		}
		if err := dec.Attach(w.Build(workload.Ref).Mem); err != nil {
			t.Fatalf("%s: Attach: %v", name, err)
		}
		for _, sched := range []core.SchedulerKind{core.SchedOldestFirst, core.SchedCRISP} {
			cfg := sim.DefaultConfig().WithSched(sched)
			cfg.Prefetcher = pf
			ram, err := sim.RunSampledContext(context.Background(), set, prog, cfg, smallSchedule)
			if err != nil {
				t.Fatalf("%s/%v: RAM run: %v", name, sched, err)
			}
			disk, err := sim.RunSampledContext(context.Background(), dec, prog, cfg, smallSchedule)
			if err != nil {
				t.Fatalf("%s/%v: decoded run: %v", name, sched, err)
			}
			// Wall-clock and allocation counters are timing-dependent;
			// every simulated quantity must match exactly.
			ram.HostNS, ram.HostAllocs = 0, 0
			disk.HostNS, disk.HostAllocs = 0, 0
			if !reflect.DeepEqual(ram, disk) {
				t.Errorf("%s/%v: decoded set diverged from RAM set:\n  cycles %d vs %d\n  insts %d vs %d\n  ipc %.6f vs %.6f",
					name, sched, ram.Cycles, disk.Cycles, ram.Insts, disk.Insts, ram.IPC(), disk.IPC())
			}
		}

		// Mutation check: the equivalence above must come from a verified
		// image, not luck — corrupting a single byte in the page data is
		// detected at decode, never silently simulated.
		bad := append([]byte(nil), enc...)
		bad[len(bad)*3/5] ^= 0x01
		if _, err := checkpoint.DecodeSet(bad, "equiv-test"); err == nil {
			t.Errorf("%s: corrupted image decoded without error", name)
		}
	}
}
