package runner

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// LockHeld reports whether a live process currently holds the advisory
// lock for (kind, key), without waiting for it: the judgement a waiter
// makes before it breaks a lock (lockSnapshot + lockStale), which nothing
// in the program needs on its own and these tests observe a holder through.
func (s *Store) LockHeld(kind, key string) bool {
	b, mod, ok := lockSnapshot(s.lockPath(kind, key))
	return ok && !lockStale(b, mod)
}

// TestLockMutualExclusion: the second acquirer blocks until the first
// releases, and the critical sections never overlap.
func TestLockMutualExclusion(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rel1, _, err := s.Lock(ctx, kindRun, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !s.LockHeld(kindRun, "k") {
		t.Error("LockHeld = false while the lock is held")
	}

	var inside atomic.Bool
	acquired := make(chan struct{})
	go func() {
		rel2, _, err := s.Lock(ctx, kindRun, "k")
		if err != nil {
			t.Error(err)
			return
		}
		inside.Store(true)
		rel2() // before the signal: the test reads LockHeld right after it
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second acquirer got the lock while the first held it")
	case <-time.After(100 * time.Millisecond):
	}
	rel1()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("second acquirer never got the released lock")
	}
	if s.LockHeld(kindRun, "k") {
		t.Error("LockHeld = true after both releases")
	}
}

// TestLockCtxCancel: a waiter honours context cancellation instead of
// polling forever against a held lock.
func TestLockCtxCancel(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := s.Lock(context.Background(), kindRun, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, _, err := s.Lock(ctx, kindRun, "k"); err == nil {
		t.Fatal("lock acquired despite a live holder and an expired context")
	}
}

// TestLockStaleRecovery: lock files left by crashed processes — dead
// pid, or an empty file from a crash between create and write — must be
// broken and reacquired, not waited on forever.
func TestLockStaleRecovery(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	// A pid far beyond the kernel's pid space is definitely dead.
	dead := fmt.Sprintf("%d %d %s", 1<<30, time.Now().UnixNano(), host)
	if err := os.WriteFile(s.lockPath(kindCkpt, "crashed"), []byte(dead), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.LockHeld(kindCkpt, "crashed") {
		t.Error("dead holder's lock reported as held")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rel, _, err := s.Lock(ctx, kindCkpt, "crashed")
	if err != nil {
		t.Fatalf("stale lock (dead pid) not recovered: %v", err)
	}
	rel()

	// Empty lock file: stale only after lockEmptyTTL, judged by mtime.
	path := s.lockPath(kindCkpt, "torn")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * lockEmptyTTL)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	rel, _, err = s.Lock(ctx, kindCkpt, "torn")
	if err != nil {
		t.Fatalf("stale empty lock not recovered: %v", err)
	}
	rel()

	// A live holder (this process) must NOT be judged stale.
	live := fmt.Sprintf("%d %d %s", os.Getpid(), time.Now().UnixNano(), host)
	if lockStale([]byte(live), time.Now()) {
		t.Error("live holder judged stale")
	}
	if !lockStale([]byte(dead), time.Now()) {
		t.Error("dead holder judged live")
	}
	// A foreign host's lock is only broken by the TTL.
	foreign := fmt.Sprintf("%d %d not-%s", 1<<30, time.Now().UnixNano(), host)
	if lockStale([]byte(foreign), time.Now()) {
		t.Error("young foreign-host lock judged stale (pid check must be host-local)")
	}
	expired := fmt.Sprintf("%d %d not-%s", 1<<30, time.Now().Add(-2*lockStaleTTL).UnixNano(), host)
	if !lockStale([]byte(expired), time.Now()) {
		t.Error("TTL-expired foreign-host lock judged live")
	}
}

// TestLockWriteFailure: a failed lock-body write (the full-disk case)
// must fail the acquire and remove the lock file, instead of proceeding
// with an empty lock that peers judge stale after lockEmptyTTL and
// break mid-compute — the duplicate-capture case the lock prevents.
func TestLockWriteFailure(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := lockWrite
	lockWrite = func(*os.File, string) error {
		return fmt.Errorf("write: no space left on device")
	}
	defer func() { lockWrite = orig }()

	if _, _, err := s.Lock(context.Background(), kindRun, "k"); err == nil {
		t.Fatal("Lock succeeded despite a failed lock-body write")
	}
	if _, err := os.Stat(s.lockPath(kindRun, "k")); !os.IsNotExist(err) {
		t.Errorf("failed acquire left the lock file behind (stat err = %v)", err)
	}

	// With the write working again the same key must be acquirable
	// immediately — no stale debris to wait out.
	lockWrite = orig
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rel, _, err := s.Lock(ctx, kindRun, "k")
	if err != nil {
		t.Fatalf("re-acquire after failed write: %v", err)
	}
	rel()
}

// TestLockHeldSnapshotRace: LockHeld must judge content and mtime from
// one file, not pair an old file's content with its replacement's
// mtime. The seam fires between the read and the stat; replacing a
// stale empty lock with a fresh one there made the old implementation
// report the stale lock as held (old empty content + new fresh mtime),
// which is also how breakIfStale would leave a crashed holder's lock in
// place for every waiter.
func TestLockHeldSnapshotRace(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := s.lockPath(kindRun, "raced")
	// A crashed holder's empty lock, old enough to be stale.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * lockEmptyTTL)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	lockSnapshotGap = func() {
		lockSnapshotGap = nil // fire once: the replacement re-stats too
		os.Remove(path)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Error(err)
		}
	}
	defer func() { lockSnapshotGap = nil }()
	if s.LockHeld(kindRun, "raced") {
		t.Error("LockHeld judged the stale lock by its replacement's mtime")
	}
}

// TestLockDisabledStore: a nil-dir store's locks are free no-ops.
func TestLockDisabledStore(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	rel, waited, err := s.Lock(context.Background(), kindRun, "k")
	if err != nil || waited != 0 {
		t.Fatalf("disabled store Lock = (%v, %v)", waited, err)
	}
	rel()
	if s.LockHeld(kindRun, "k") {
		t.Error("disabled store reports a held lock")
	}
}
