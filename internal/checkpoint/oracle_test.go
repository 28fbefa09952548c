package checkpoint_test

// The delta container against the version-1 account of a set
// (encode_ref_test.go), on sets captured from registered workloads. These
// live in the external test package because package workload imports
// package checkpoint.

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"crisp/internal/cache"
	"crisp/internal/checkpoint"
	"crisp/internal/emu"
	"crisp/internal/prefetch"
	"crisp/internal/program"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

var oracleSchedule = sim.Sampling{Warm: 20_000, Window: 5_000, Count: 3}

// privatePages sums the pages an unattached set's points hold.
func privatePages(set *checkpoint.Set) int {
	n := 0
	for _, pt := range set.Points {
		n += pt.Mem.Pages()
	}
	return n
}

// TestWorkloadSetsRoundTrip: for a read-only app (mcf), two writing ones
// (moses updates a table in place, streambatch rewrites a buffer) and a
// two-core co-run, a set that went through EncodeSet, DecodeSet and Attach
// to an image the workload built afresh — not the captured set's own — is
// the captured set, by the version-1 encoder's account of every field,
// every page and every sharing. The read-only app's points come back
// holding no page at all, the writing ones' holding some.
func TestWorkloadSetsRoundTrip(t *testing.T) {
	for name, writes := range map[string]bool{"mcf": false, "moses": true, "streambatch": true} {
		set, err := sim.CaptureCheckpointsContext(context.Background(), workload.ByName(name).Build(workload.Ref), sim.DefaultConfig(), oracleSchedule)
		if err != nil {
			t.Fatal(err)
		}
		want := checkpoint.RefEncodeSet(set, name)
		enc := checkpoint.EncodeSet(set, name)
		dec, err := checkpoint.DecodeSet(enc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := privatePages(dec) > 0; got != writes {
			t.Errorf("%s: decoded points hold %d pages; does the app write: %v", name, privatePages(dec), writes)
		}
		if bytes.Equal(checkpoint.RefEncodeSet(dec, name), want) {
			t.Errorf("%s: an unattached set already passes for the captured one: the check is vacuous", name)
		}
		if err := dec.Attach(workload.ByName(name).Build(workload.Ref).Mem); err != nil {
			t.Fatalf("%s: Attach: %v", name, err)
		}
		if !bytes.Equal(checkpoint.RefEncodeSet(dec, name), want) {
			t.Errorf("%s: encode, decode and Attach changed the set", name)
		}
		if !bytes.Equal(checkpoint.EncodeSet(dec, name), enc) {
			t.Errorf("%s: the attached set encodes to other bytes than the captured one", name)
		}
	}

	build := func() []*sim.Image {
		return []*sim.Image{workload.ByName("tailchase").Build(workload.Ref), workload.ByName("streambatch").Build(workload.Ref)}
	}
	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	mset, err := sim.CaptureMultiCheckpointsContext(context.Background(), build(), cfgs, oracleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	want := checkpoint.RefEncodeMultiSet(mset, "pair")
	dec, err := checkpoint.DecodeMultiSet(checkpoint.EncodeMultiSet(mset, "pair"), "pair")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(checkpoint.RefEncodeMultiSet(dec, "pair"), want) {
		t.Errorf("an unattached multi-set already passes for the captured one: the check is vacuous")
	}
	imgs := build()
	if err := dec.Attach([]*emu.Memory{imgs[0].Mem, imgs[1].Mem}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if !bytes.Equal(checkpoint.RefEncodeMultiSet(dec, "pair"), want) {
		t.Errorf("encode, decode and Attach changed the multi-set")
	}
}

// TestSetSizeAndSharing pins what the delta buys under the schedule the
// sweeps use. mcf's set was 22.6 MB and bwaves's 80.5 MB when every point
// carried its image; both are read-only, so what is left is lines,
// predictors and prefetcher tables. And attaching such a set allocates one
// memory header a point, not a page table and not a page, so a decoded set
// costs its own bytes and nothing of the image's 16k pages.
func TestSetSizeAndSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("captures two 2M-instruction schedules")
	}
	for _, name := range []string{"mcf", "bwaves"} {
		w := workload.ByName(name)
		set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), sim.AutoSampling(2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		enc := checkpoint.EncodeSet(set, name)
		if len(enc) >= 8<<20 {
			t.Errorf("%s: set encodes to %.1f MB, want under 8", name, float64(len(enc))/1e6)
		}
		dec, err := checkpoint.DecodeSet(enc, name)
		if err != nil {
			t.Fatal(err)
		}
		image := w.Build(workload.Ref).Mem
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		err = dec.Attach(image)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		// One header a point, the checksum's sorted page numbers, slack for
		// the runtime's own.
		if got, max := ms.Mallocs-before, uint64(len(dec.Points)+8); got > max {
			t.Errorf("%s: Attach of %d points over %d pages made %d allocations, want at most %d",
				name, len(dec.Points), image.Pages(), got, max)
		}
		// Every page of every point is the image's own array: the attached
		// set encodes, over that image, to the bytes it came from.
		if !bytes.Equal(checkpoint.EncodeSet(dec, name), enc) {
			t.Errorf("%s: an attached point holds a page that is not the image's", name)
		}
	}
}

// TestCaptureWarmerMatchesOracle: sharing one L1I between the variants, and
// everything the warm path does per access, is not in the captured bytes.
// A pointer chaser, a table updater, a streamer and a hashed service under
// the sweep's schedule, warmed into all four variants, encode to the bytes
// of the capture over refWarmer (capture_test.go), whose variants each own
// and warm a whole hierarchy. bop+stream is among them since PR 28 gave its
// stream table a defined victim: two captures by one commit are one set.
// Handing an L1I miss to the first variant's LLC only fails every app.
func TestCaptureWarmerMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("captures eight 2M-instruction schedules")
	}
	s := sim.AutoSampling(2_000_000)
	p := checkpoint.Params{Skip: s.Skip, Warm: s.Warm, Window: s.Window, Count: s.Count}
	core := sim.DefaultConfig().Core
	capture := func(name string, f func(*program.Program, *emu.Emulator, cache.HierConfig, int, int, int, map[string]prefetch.Prefetcher, checkpoint.Params) *checkpoint.Set) []byte {
		img := workload.ByName(name).Build(workload.Ref)
		em := emulatorOver(img)
		pfs := map[string]prefetch.Prefetcher{
			"bop+stream": &prefetch.Composite{Parts: []prefetch.Prefetcher{prefetch.NewBOP(), prefetch.NewStream(64)}},
			"stride":     prefetch.NewStride(256), "ghb": prefetch.NewGHB(512), "none": nil,
		}
		set := f(img.Prog, em, cache.DefaultHierConfig(), core.BTBEntries, core.BTBWays, core.RASEntries, pfs, p)
		if len(set.Points) != s.Count {
			t.Fatalf("%s: captured %d points, want %d", name, len(set.Points), s.Count)
		}
		set.HostNS = 0
		return checkpoint.EncodeSet(set, name)
	}
	captureContext := func(prog *program.Program, em *emu.Emulator, hcfg cache.HierConfig, btbEntries, btbWays, rasEntries int, pfs map[string]prefetch.Prefetcher, p checkpoint.Params) *checkpoint.Set {
		set, err := checkpoint.CaptureContext(context.Background(), prog, em, hcfg, btbEntries, btbWays, rasEntries, pfs, p)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	for _, name := range []string{"mcf", "moses", "lbm", "memcached"} {
		if !bytes.Equal(capture(name, captureContext), capture(name, checkpoint.RefCapture)) {
			t.Errorf("%s: the set encodes differently from the one the per-variant warmer captures", name)
		}
	}
}
