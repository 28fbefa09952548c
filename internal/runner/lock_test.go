package runner

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// LockHeld reports whether some open file holds the lock for (kind,
// key), without waiting for it: a non-blocking flock probe on a fresh
// descriptor, which nothing in the program needs and these tests observe
// a holder through.
func (s *Store) LockHeld(kind, key string) bool {
	f, err := os.Open(s.lockPath(kind, key))
	if err != nil {
		return false
	}
	defer f.Close()
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) != nil
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

// TestClaimStress: stores on one directory, one per goroutine as if one
// per process, claim one key over and over; half the claims are released
// and half publish with Put. The critical sections must never overlap:
// that is what claim's check that the path still names the locked file
// keeps, once a holder has renamed or removed it.
func TestClaimStress(t *testing.T) {
	dir := t.TempDir()
	const workers, claims = 8, 60
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < claims; i++ {
				rel, _, err := s.Lock(context.Background(), kindRun, "k")
				if err != nil {
					t.Error(err)
					return
				}
				if inside.Add(1) > 1 {
					overlaps.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
				inside.Add(-1)
				if i%2 == 1 {
					if err := s.Put(kindRun, "k", storedThing{A: w, B: i}); err != nil {
						t.Error(err)
					}
				}
				rel()
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d claims overlapped another's critical section", n)
	}
	if !(&Store{dir: dir}).Get(kindRun, "k", &storedThing{}) {
		t.Error("no decodable entry after the stress")
	}
	if _, err := os.Stat((&Store{dir: dir}).lockPath(kindRun, "k")); !os.IsNotExist(err) {
		t.Errorf("lock left behind (stat err = %v)", err)
	}
}

// TestLockStaleRecovery: a lock file a crashed process left behind —
// empty, holding a dead or a live pid's body, or half an entry — has no
// holder, so it is taken at once, whatever its content or age says, and
// a put through it leaves only the entry.
func TestLockStaleRecovery(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	leftovers := map[string]string{
		"empty": "",
		// A pid far beyond the kernel's pid space is definitely dead.
		"dead":  fmt.Sprintf("%d %d %s", 1<<30, time.Now().UnixNano(), host),
		"live":  fmt.Sprintf("%d %d %s", os.Getpid(), time.Now().UnixNano(), host),
		"entry": `{"A":1,"B":2,"Name":"half an ent`,
	}
	for _, name := range []string{"empty", "dead", "live", "entry"} {
		if err := os.WriteFile(s.lockPath(kindRun, name), []byte(leftovers[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		if s.LockHeld(kindRun, name) {
			t.Errorf("%s: a leftover lock file reported as held", name)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		rel, waited, err := s.Lock(ctx, kindRun, name)
		cancel()
		if err != nil {
			t.Fatalf("%s: leftover lock not taken: %v", name, err)
		}
		if waited >= lockPollInterval {
			t.Errorf("%s: waited %v on a leftover lock, want no poll", name, waited)
		}
		if err := s.Put(kindRun, name, storedThing{A: 1, Name: name}); err != nil {
			t.Fatal(err)
		}
		rel()
		var got storedThing
		if !s.Get(kindRun, name, &got) || got.Name != name {
			t.Errorf("%s: entry %+v after a put over the leftover", name, got)
		}
		if _, err := os.Stat(s.lockPath(kindRun, name)); !os.IsNotExist(err) {
			t.Errorf("%s: lock left behind (stat err = %v)", name, err)
		}
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
