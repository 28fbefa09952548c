package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crisp/internal/core"
	"crisp/internal/sim"
	"crisp/internal/workload"
)

type storedThing struct {
	A, B int
	Name string
}

// TestStoreCorruptEntry: a corrupt cache entry must count as a miss AND
// leave the caller's value untouched. json.Unmarshal populates fields as
// it decodes and only then reports type errors, so decoding straight into
// the caller's value would hand back a half-overwritten struct alongside
// the "miss" verdict.
func TestStoreCorruptEntry(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(kindRun, "k", storedThing{A: 1, B: 2, Name: "good"}); err != nil {
		t.Fatal(err)
	}
	// Overwrite with an entry whose A and Name decode fine before B hits a
	// type error — the partial-population trap.
	if err := os.WriteFile(s.path(kindRun, "k"), []byte(`{"A":999,"Name":"evil","B":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	v := storedThing{A: 1, B: 2, Name: "keep"}
	if s.Get(kindRun, "k", &v) {
		t.Error("corrupt entry reported as a cache hit")
	}
	if (v != storedThing{A: 1, B: 2, Name: "keep"}) {
		t.Errorf("corrupt entry mutated the caller's value: %+v", v)
	}

	// Truncated file (interrupted write without the atomic rename): also a
	// clean miss.
	if err := os.WriteFile(s.path(kindRun, "k"), []byte(`{"A":7,"Na`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Get(kindRun, "k", &v) {
		t.Error("truncated entry reported as a cache hit")
	}
	if (v != storedThing{A: 1, B: 2, Name: "keep"}) {
		t.Errorf("truncated entry mutated the caller's value: %+v", v)
	}

	// Non-pointer destinations are rejected, not panicked on.
	if s.Get(kindRun, "k", storedThing{}) {
		t.Error("non-pointer destination reported as a hit")
	}

	// And a valid entry still round-trips.
	if err := s.Put(kindRun, "k2", storedThing{A: 5, B: 6, Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	var got storedThing
	if !s.Get(kindRun, "k2", &got) || got != (storedThing{A: 5, B: 6, Name: "ok"}) {
		t.Errorf("valid entry failed to round-trip: %+v", got)
	}
}

// TestStoreDeletesCorruptEntry: a corrupt entry is removed on the miss,
// so the recompute that follows can publish cleanly and later readers
// never trip over the same damage.
func TestStoreDeletesCorruptEntry(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(kindRun, "k"), []byte(`{"A":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var v storedThing
	if s.Get(kindRun, "k", &v) {
		t.Fatal("corrupt entry reported as a hit")
	}
	if _, err := os.Stat(s.path(kindRun, "k")); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted on miss")
	}
}

// TestStoreOldShapeIsAMiss: an entry in the encoding results had up to
// crisp-sim-5 (keyed Hist/LoadProf/BranchProf objects), found under a key
// this simulator believes in, is a corrupt entry like any other: a miss
// that leaves the caller's value alone and deletes the file, after which
// the run is simulated once and published in the row encoding. The
// CodeVersion bump means no process asks for such an entry; this is what
// happens if one is copied into place anyway.
func TestStoreOldShapeIsAMiss(t *testing.T) {
	ctx, spec := context.Background(), chaseSpec(20_000)
	want, err := newRunner(t, Options{Workers: 1}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, Options{Workers: 1, CacheDir: t.TempDir()})
	s := r.Store()
	path := s.path(kindRun, spec.Key())
	plant := func() {
		t.Helper()
		if err := os.WriteFile(path, refJSON(t, want), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	plant()
	got := core.Result{Cycles: 1}
	if s.Get(kindRun, spec.Key(), &got) {
		t.Fatal("an old-shape entry reported as a hit")
	}
	if got.Cycles != 1 || got.Insts != 0 || got.Loads != nil {
		t.Errorf("an old-shape entry mutated the caller's value: Cycles %d, Insts %d, %d loads", got.Cycles, got.Insts, len(got.Loads))
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("old-shape entry not deleted on the miss")
	}

	plant()
	res, err := r.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 1 || st.DiskHits != 0 {
		t.Errorf("Executed %d, DiskHits %d; want the run simulated once and nothing read from the store", st.Executed, st.DiskHits)
	}
	var stored core.Result
	if !s.Get(kindRun, spec.Key(), &stored) {
		t.Fatal("the recomputed result was not published over the old-shape entry")
	}
	if stored.Cycles != want.Cycles || stored.Hists != want.Hists || res.Cycles != want.Cycles {
		t.Errorf("recomputed result differs: %d cycles stored, %d returned, want %d", stored.Cycles, res.Cycles, want.Cycles)
	}
}

// TestStoreSweepsStaleTmp: NewStore removes *.tmp debris left by a
// process that crashed between CreateTemp and rename — but only files
// older than tmpSweepTTL, so a live writer in another process keeps its
// in-flight temp file, and non-tmp entries are never touched.
func TestStoreSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "run-12345678.tmp")
	fresh := filepath.Join(dir, "ckpt-87654321.tmp")
	entry := filepath.Join(dir, "run-deadbeef.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpSweepTTL)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	// The real entry is also old: age must only matter for .tmp files.
	if err := os.Chtimes(entry, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := NewStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived NewStore (stat err = %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file swept: a live writer's in-flight file was removed (%v)", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Errorf("non-tmp store entry swept: %v", err)
	}
}

// TestStoreCheckpointEntry: checkpoint sets round-trip through the
// binary codec path, a truncated file (the torn write the fsync+rename
// discipline prevents, injected by hand) is a miss that deletes the
// entry, and the slot is rewritable afterwards.
func TestStoreCheckpointEntry(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.ByName("pointerchase")
	sched := sim.Sampling{Warm: 15_000, Window: 5_000, Count: 2}
	set, err := sim.CaptureCheckpointsContext(context.Background(), w.Build(workload.Ref), sim.DefaultConfig(), sched)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpointKey("pointerchase", workload.Ref, sched)

	if _, ok := s.GetCheckpoint(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.PutCheckpoint(key, set); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetCheckpoint(key)
	if !ok {
		t.Fatal("miss after PutCheckpoint")
	}
	if len(got.Points) != len(set.Points) || got.FFInsts != set.FFInsts || got.Hier != set.Hier {
		t.Errorf("checkpoint set did not round-trip: %d/%d points", len(got.Points), len(set.Points))
	}

	// Truncate the entry to a third: the CRC/length checks must turn it
	// into a miss AND delete the file so the recapture can publish.
	path := s.path(kindCkpt, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCheckpoint(key); ok {
		t.Fatal("truncated checkpoint entry reported as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("truncated checkpoint entry not deleted on miss")
	}
	if err := s.PutCheckpoint(key, set); err != nil {
		t.Fatalf("re-publish after corrupt delete: %v", err)
	}
	if _, ok := s.GetCheckpoint(key); !ok {
		t.Error("miss after re-publishing over a deleted entry")
	}

	// A key mismatch (file renamed over the wrong slot) is also a miss.
	if err := os.Rename(s.path(kindCkpt, key), s.path(kindCkpt, "wrong")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCheckpoint("wrong"); ok {
		t.Error("checkpoint served under a mismatched content key")
	}

	// No temp files left behind by any of the writes above.
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s", filepath.Join(s.dir, e.Name()))
		}
	}
}
