package sim_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/emu"
	"crisp/internal/isa"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// strideSetSHA256 is the sha-256 of the set TestCaptureSetBytes captures,
// as container version 6 encodes it: the four variants of a one-core set,
// bop+stream, stride, ghb and none, each with its warmed hierarchy and
// prefetcher tables. Version 5 wrote it as 3ded9138…; TestDecodedSetRestores
// holds what the two restore to.
const strideSetSHA256 = "3f03d7ec09c18d2394f28c10967c3a731b8a971a3129c2a08e80b3293ad71bd2"

// TestCaptureSetBytes pins the bytes of a one-core checkpoint set, so that
// a change to how a prefetcher is built, cloned or encoded that moves any
// variant's warmed state or its encoding fails here. The program is a load
// loop of stride 72 bytes, which skips one line in nine, so the stream and
// stride tables, BOP's offset scores and GHB's deltas all train.
func TestCaptureSetBytes(t *testing.T) {
	b := program.NewBuilder("stride72")
	b.MovI(isa.R(3), 0x200000)
	b.MovI(isa.R(4), 0)
	b.MovI(isa.R(5), 1<<20)
	b.Label("loop")
	b.Load(isa.R(8), isa.R(3), 0)
	b.AddI(isa.R(3), isa.R(3), 72)
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "loop")
	b.Halt()
	img := &sim.Image{Prog: b.MustBuild(), Mem: emu.NewMemory()}
	set, err := sim.CaptureCheckpointsContext(context.Background(), img, sim.DefaultConfig(), sim.Sampling{Warm: 20_000, Window: 2_000, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Points) != 3 || len(set.Points[0].Variants) != 4 {
		t.Fatalf("set has %d points of %d variants, want 3 of 4", len(set.Points), len(set.Points[0].Variants))
	}
	set.HostNS = 0 // wall time legitimately differs
	if got := fmt.Sprintf("%x", sha256.Sum256(checkpoint.EncodeSet(set, "stride72"))); got != strideSetSHA256 {
		t.Errorf("one-core set hashes to %s, want %s", got, strideSetSHA256)
	}
}

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
