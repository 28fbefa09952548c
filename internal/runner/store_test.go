package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

	// No lock or temp files left behind by any of the writes above.
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ext := filepath.Ext(e.Name()); ext == ".tmp" || ext == ".lock" {
			t.Errorf("stray file %s", filepath.Join(s.dir, e.Name()))
		}
	}
}

// TestHeldClaimIsNeverTaken: a claim's holder keeps it for as long as it
// lives, however old the lock file looks. Here the file says, in the
// pid-body format older stores wrote, that it was taken 11 minutes ago,
// and its mtime is an hour old; a peer on the same store must still wait
// out its context, and the holder's put must publish.
func TestHeldClaimIsNeverTaken(t *testing.T) {
	dir := t.TempDir()
	holder, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	release, _, err := holder.Lock(context.Background(), kindRun, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	lock := holder.lockPath(kindRun, "k")
	host, _ := os.Hostname()
	body := fmt.Sprintf("%d %d %s", os.Getpid(), time.Now().Add(-11*time.Minute).UnixNano(), host)
	if err := os.WriteFile(lock, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if peerRelease, _, err := peer.Lock(ctx, kindRun, "k"); !errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			peerRelease()
		}
		t.Fatalf("peer Lock = %v, want %v: a live holder's claim was taken", err, context.DeadlineExceeded)
	}
	if err := holder.Put(kindRun, "k", storedThing{A: 1, B: 2, Name: "late"}); err != nil {
		t.Fatal(err)
	}
	var got storedThing
	if !peer.Get(kindRun, "k", &got) || got.Name != "late" {
		t.Errorf("entry %+v after the holder's put", got)
	}
	if _, err := os.Stat(lock); !os.IsNotExist(err) {
		t.Errorf("lock left behind (stat err = %v)", err)
	}
}

// TestResolveFailureLeavesNothing: a compute that fails, or that a
// cancelled context stops, publishes nothing and releases its claim, so
// the store holds neither a lock nor an entry.
func TestResolveFailureLeavesNothing(t *testing.T) {
	for _, name := range []string{"compute error", "cancelled"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r := newRunner(t, Options{CacheDir: dir})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := resolve(ctx, r, task[int]{
				kind: kindRun, key: "k",
				load: func() (int, bool) { return 0, false },
				compute: func(ctx context.Context) (int, error) {
					if name == "cancelled" {
						cancel()
						return 0, ctx.Err()
					}
					return 0, os.ErrInvalid
				},
				save: func(v int) error { return r.store.Put(kindRun, "k", v) },
			})
			if err == nil {
				t.Fatal("resolve reported no error")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%d files left in the store, want none", len(ents))
			}
		})
	}
}
