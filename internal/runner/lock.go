package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Cross-process claims. A claim on (kind, key) is an exclusive flock(2)
// on the file <kind>-<key>.lock next to the entry it guards. The kernel
// holds it for the open file and drops it when the holder closes the file
// or dies, so a live claim is never broken and a dead one frees at once;
// the file's content means nothing. Only a holder renames the path (put
// publishes through it) or removes it (a release), and it does so before
// it closes the file. A claimer therefore checks, once it holds the lock,
// that the path still names the file it locked, and starts over if not.
// Writers hold the claim across compute-and-publish, so two processes
// sweeping one store never capture the same checkpoint or run the same
// spec concurrently — the loser blocks, then finds the winner's entry on
// its post-acquire re-check.
const lockPollInterval = 20 * time.Millisecond

func (s *Store) lockPath(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+".lock")
}

// lockBusy is a test seam called each time a claim finds its lock held.
var lockBusy func()

// Lock acquires the advisory cross-process lock for (kind, key),
// polling until it is free or ctx is done, and records the claim for a
// put of the key to publish through. It returns the release function,
// which removes the lock unless a put took the claim, and how long
// acquisition blocked. On a nil-dir store it is a no-op.
func (s *Store) Lock(ctx context.Context, kind, key string) (release func(), waited time.Duration, err error) {
	if s.dir == "" {
		return func() {}, 0, nil
	}
	path := s.lockPath(kind, key)
	f, waited, err := claim(ctx, path)
	if err != nil {
		return nil, waited, err
	}
	s.held.Store(path, f)
	return func() {
		if s.held.CompareAndDelete(path, f) {
			os.Remove(path)
			f.Close()
		}
	}, waited, nil
}

// claim opens (creating if need be) the lock file path and takes its
// flock, polling as Lock does, and returns the file still open for the
// put that publishes through it.
func claim(ctx context.Context, path string) (*os.File, time.Duration, error) {
	start := time.Now()
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, time.Since(start), fmt.Errorf("runner: open lock %s: %w", path, err)
		}
		for {
			err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
			if !errors.Is(err, syscall.EWOULDBLOCK) {
				break
			}
			if lockBusy != nil {
				lockBusy()
			}
			select {
			case <-ctx.Done():
				f.Close()
				return nil, time.Since(start), ctx.Err()
			case <-time.After(lockPollInterval):
			}
		}
		if err != nil {
			f.Close()
			return nil, time.Since(start), fmt.Errorf("runner: lock %s: %w", path, err)
		}
		// The holder before us may have renamed the path (published) or
		// removed it (released) before it let go: then the file we hold is
		// no longer the lock.
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, time.Since(start), fmt.Errorf("runner: lock %s: %w", path, err)
		}
		if li, err := os.Stat(path); err == nil && os.SameFile(fi, li) {
			return f, time.Since(start), nil
		}
		f.Close()
	}
}
