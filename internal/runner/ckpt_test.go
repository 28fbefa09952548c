package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

// A stored checkpoint set is a delta over the image its workload builds,
// so what a runner reads back is only as good as the image it attaches.
// These tests run the windows from a set another runner stored and compare
// with windows run from a set captured in memory, and put sets over the
// wrong image under the right key. Specs run under Table 1's bop+stream,
// which reproduces on the writing workloads too since PR 28.

var storedSchedule = sim.Sampling{Warm: 15_000, Window: 5_000, Count: 3}

func zeroHostRun(r *core.Result) *core.Result {
	c := *r
	c.HostNS, c.HostAllocs, c.HostFFNS = 0, 0, 0
	return &c
}

// TestFreshRunnerRestoresStoredSets: a runner with an empty memo over a
// store another runner filled decodes the set, attaches it to the image it
// builds, and runs a spec nobody has run yet to exactly the result a
// runner that captures the set itself gets — for a workload that updates a
// table in place, one that rewrites a buffer, and a sampled 2-core co-run
// whose images calibration has written before the capture starts.
func TestFreshRunnerRestoresStoredSets(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"moses", "streambatch"} {
		dir := t.TempDir()
		spec := sim.RunSpec{Workload: name, Sampling: &storedSchedule}
		if _, err := newRunner(t, Options{CacheDir: dir}).Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
		spec.Sched = sim.SchedCRISP // shares the set, not the result
		fresh := newRunner(t, Options{CacheDir: dir})
		got, err := fresh.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := fresh.Stats(); st.CkptDiskHits != 1 || st.CkptCaptured != 0 || st.Executed != 1 {
			t.Fatalf("%s: fresh runner: %d disk hits, %d captures, %d executed; want 1, 0, 1", name, st.CkptDiskHits, st.CkptCaptured, st.Executed)
		}
		want, err := newRunner(t, Options{CacheDir: t.TempDir()}).Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zeroHostRun(got), zeroHostRun(want)) {
			t.Errorf("%s: windows over the stored set: %d cycles, over a captured one: %d", name, got.Cycles, want.Cycles)
		}
	}

	dir := t.TempDir()
	spec := sim.MultiSpec{Cores: []sim.RunSpec{
		{Workload: "tailchase"},
		{Workload: "streambatch"},
	}, Sampling: &storedSchedule}
	if _, err := newRunner(t, Options{CacheDir: dir}).RunMulti(ctx, spec); err != nil {
		t.Fatal(err)
	}
	spec.Cores = append([]sim.RunSpec(nil), spec.Cores...)
	spec.Cores[0].Sched = sim.SchedRandom
	fresh := newRunner(t, Options{CacheDir: dir})
	got, err := fresh.RunMulti(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.CkptDiskHits != 1 || st.CkptCaptured != 0 {
		t.Fatalf("co-run: fresh runner: %d disk hits, %d captures; want 1, 0", st.CkptDiskHits, st.CkptCaptured)
	}
	want, err := newRunner(t, Options{CacheDir: t.TempDir()}).RunMulti(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*sim.MultiResult{got, want} {
		m.HostNS, m.HostFFNS = 0, 0
		for i, r := range m.Cores {
			m.Cores[i] = zeroHostRun(r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("co-run: windows over the stored set: %d/%d cycles, over a captured one: %d/%d",
			got.Cores[0].Cycles, got.Cores[1].Cycles, want.Cores[0].Cycles, want.Cores[1].Cycles)
	}
}

// residentWord finds an address the image holds a non-zero word at.
func residentWord(t *testing.T, img *sim.Image) uint64 {
	t.Helper()
	for addr := uint64(0); addr < 1<<32; addr += 4096 {
		if img.Mem.ReadWord(addr) != 0 {
			return addr
		}
	}
	t.Fatal("image holds no non-zero word at a page start")
	return 0
}

// TestWrongImageIsRecaptured: the content key names the workload and the
// input, but only the image head can tell that the bytes under it were
// captured over something else — the other input's image, or this one with
// a page edited (a kernel initialiser changed without a CodeVersion bump).
// Such an entry is deleted and the capture redone; its windows never run.
func TestWrongImageIsRecaptured(t *testing.T) {
	ctx := context.Background()
	w := workload.ByName("moses")
	spec := sim.RunSpec{Workload: "moses", Sampling: &storedSchedule}
	key := checkpointKey("moses", workload.Ref, storedSchedule)
	want, err := newRunner(t, Options{CacheDir: t.TempDir()}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	edited := w.Build(workload.Ref)
	addr := residentWord(t, edited)
	edited.Mem.WriteWord(addr, ^edited.Mem.ReadWord(addr))
	for name, img := range map[string]*sim.Image{"train image": w.Build(workload.Train), "one word edited": edited} {
		dir := t.TempDir()
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		pages := img.Mem.Pages()
		planted, err := sim.CaptureCheckpointsContext(ctx, img, sim.DefaultConfig(), storedSchedule)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutCheckpoint(key, planted); err != nil {
			t.Fatal(err)
		}
		if name == "one word edited" && pages != w.Build(workload.Ref).Mem.Pages() {
			t.Fatalf("the edit changed the page count; it must be caught by the checksum alone")
		}
		if set, ok := store.GetCheckpoint(key); !ok || set.Attach(w.Build(workload.Ref).Mem) == nil {
			t.Fatalf("%s: the planted entry does not decode, or attaches to the ref image", name)
		}
		bad, err := os.ReadFile(store.path(kindCkpt, key))
		if err != nil {
			t.Fatal(err)
		}

		r := newRunner(t, Options{CacheDir: dir})
		got, err := r.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.CkptDiskHits != 0 || st.CkptCaptured != 1 {
			t.Errorf("%s: %d disk hits, %d captures; want the entry refused and the capture redone", name, st.CkptDiskHits, st.CkptCaptured)
		}
		if !reflect.DeepEqual(zeroHostRun(got), zeroHostRun(want)) {
			t.Errorf("%s: %d cycles, want %d: the windows ran over the wrong memory", name, got.Cycles, want.Cycles)
		}
		now, err := os.ReadFile(store.path(kindCkpt, key))
		if err != nil || bytes.Equal(now, bad) {
			t.Errorf("%s: the refused entry was not replaced by the recapture (%v)", name, err)
		}
		again := newRunner(t, Options{CacheDir: dir})
		spec2 := spec
		spec2.Sched = sim.SchedCRISP
		if _, err := again.Run(ctx, spec2); err != nil {
			t.Fatal(err)
		}
		if st := again.Stats(); st.CkptDiskHits != 1 || st.CkptCaptured != 0 {
			t.Errorf("%s: after the recapture: %d disk hits, %d captures; want 1, 0", name, st.CkptDiskHits, st.CkptCaptured)
		}
	}
}

// TestStoreVersion1IsAMiss: a file written by the version-1 codec (every
// page of every point, 26-byte lines) must not reach the version-2
// decoder's payload parser. The version field sits outside the CRC, so a
// well-formed file with the old number in it stands in for one; it is a
// miss, deleted like any entry the reader cannot use. Same for a multi-set.
func TestStoreVersion1IsAMiss(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set, err := sim.CaptureCheckpointsContext(context.Background(), workload.ByName("pointerchase").Build(workload.Ref), sim.DefaultConfig(), storedSchedule)
	if err != nil {
		t.Fatal(err)
	}
	imgs := []*sim.Image{workload.ByName("tailchase").Build(workload.Ref), workload.ByName("pointerchase").Build(workload.Ref)}
	mset, err := sim.CaptureMultiCheckpointsContext(context.Background(), imgs, []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}, storedSchedule)
	if err != nil {
		t.Fatal(err)
	}
	for kind, enc := range map[string][]byte{kindCkpt: checkpoint.EncodeSet(set, "k"), kindMultiCkpt: checkpoint.EncodeMultiSet(mset, "k")} {
		get := func() bool {
			if kind == kindCkpt {
				_, ok := s.GetCheckpoint("k")
				return ok
			}
			_, ok := s.GetMultiCheckpoint("k")
			return ok
		}
		plant := func() {
			if err := s.put(kind, "k", func() ([]byte, error) { return enc, nil }); err != nil {
				t.Fatal(err)
			}
		}
		plant()
		if !get() {
			t.Fatalf("%s: current-version entry is a miss", kind)
		}
		const versionAt = 8 // behind the 8-byte magic
		if v := binary.LittleEndian.Uint32(enc[versionAt:]); v != 2 {
			t.Fatalf("%s: codec version %d at offset %d, want 2", kind, v, versionAt)
		}
		binary.LittleEndian.PutUint32(enc[versionAt:], 1)
		plant()
		if get() {
			t.Errorf("%s: version-1 entry served", kind)
		}
		if _, err := os.Stat(s.path(kind, "k")); err == nil {
			t.Errorf("%s: version-1 entry not deleted on the miss", kind)
		}
	}
}
