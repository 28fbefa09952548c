package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Cross-process advisory locks. A lock is a file created with
// O_CREATE|O_EXCL next to the store entry it guards, holding
// "pid startUnixNano hostname". Creation is the atomic acquire; release
// is put's rename of the file (then holding the entry) onto the entry's
// name, or removal if nothing is published. Writers hold the lock across
// compute-and-publish, so two processes sweeping one store never capture
// the same checkpoint or run the same spec concurrently — the loser
// blocks, then finds the winner's entry on its post-acquire re-check.
//
// Crash recovery: a holder that dies leaves its lock file behind. A
// waiter judges a lock stale when the recorded pid is no longer alive on
// this host (same-host locks, the common case), or — when liveness
// cannot be determined, e.g. the lock was taken on another machine or
// the pid was recycled — when the lock has outlived lockStaleTTL.
// Unparseable lock files (a crash between create and write, or between a
// put's write of the entry and its rename) go stale after lockEmptyTTL.
// Breaking re-reads the file first so a lock released and re-acquired
// during the staleness check is not clobbered.
const (
	lockPollInterval = 20 * time.Millisecond
	lockEmptyTTL     = 2 * time.Second
	lockStaleTTL     = 10 * time.Minute
)

func (s *Store) lockPath(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+".lock")
}

// lockWrite writes the lock body. It is a variable only so tests can
// inject the full-disk failure that is otherwise impractical to provoke
// in a temp dir.
var lockWrite = func(f *os.File, body string) error {
	_, err := io.WriteString(f, body)
	return err
}

// lockSnapshotGap is a test seam invoked between the content read and
// the stat inside lockSnapshot, so tests can interleave a release and
// re-acquire at the exact point the old two-path implementation raced.
var lockSnapshotGap func()

// lockSnapshot reads a lock file's content and modification time as one
// consistent pair: both come from a single open file descriptor, so a
// lock released and re-acquired between the two reads cannot pair the
// old file's content with the new file's mtime (which misjudged
// staleness — an empty crashed lock looked freshly written, so peers
// waited on it forever instead of breaking it).
func lockSnapshot(path string) (content []byte, mod time.Time, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, false
	}
	defer f.Close()
	content, err = io.ReadAll(f)
	if err != nil {
		return nil, time.Time{}, false
	}
	if lockSnapshotGap != nil {
		lockSnapshotGap()
	}
	fi, err := f.Stat() // fstat: describes the inode we read, even if the path was replaced
	if err != nil {
		return nil, time.Time{}, false
	}
	return content, fi.ModTime(), true
}

// Lock acquires the advisory cross-process lock for (kind, key),
// polling until it is free, a stale lock is broken, or ctx is done, and
// records the claim for a put of the key to publish through. It returns
// the release function, which removes the lock unless a put took the
// claim, and how long acquisition blocked. On a nil-dir store it is a no-op.
func (s *Store) Lock(ctx context.Context, kind, key string) (release func(), waited time.Duration, err error) {
	if s.dir == "" {
		return func() {}, 0, nil
	}
	path := s.lockPath(kind, key)
	f, waited, err := s.claim(ctx, path)
	if err != nil {
		return nil, waited, err
	}
	s.held.Store(path, f)
	return func() {
		if s.held.CompareAndDelete(path, f) {
			f.Close()
			os.Remove(path)
		}
	}, waited, nil
}

// claim creates the lock file path and writes its body, polling as Lock
// does, and returns the file still open for the put that publishes
// through it.
func (s *Store) claim(ctx context.Context, path string) (*os.File, time.Duration, error) {
	start := time.Now()
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			host, _ := os.Hostname()
			body := fmt.Sprintf("%d %d %s", os.Getpid(), time.Now().UnixNano(), host)
			if werr := lockWrite(f, body); werr != nil {
				// A failed body write (full disk) must not leave an empty
				// lock: peers would break it after lockEmptyTTL, mid-compute.
				// Remove it and fail the acquire instead.
				f.Close()
				os.Remove(path)
				return nil, time.Since(start), fmt.Errorf("runner: write lock %s: %w", path, werr)
			}
			return f, time.Since(start), nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, time.Since(start), fmt.Errorf("runner: create lock %s: %w", path, err)
		}
		s.breakIfStale(path)
		select {
		case <-ctx.Done():
			return nil, time.Since(start), ctx.Err()
		case <-time.After(lockPollInterval):
		}
	}
}

// breakIfStale removes path if it is a stale lock. The re-read before
// removal closes (most of) the window where the judged-stale file has
// been released and re-acquired by a live process; the TTLs make any
// remaining race harmless — a broken live lock only means one duplicate
// computation, and the post-acquire store re-check keeps entries
// single-writer-consistent.
func (s *Store) breakIfStale(path string) {
	b, mod, ok := lockSnapshot(path)
	if !ok || !lockStale(b, mod) {
		return
	}
	if b2, err := os.ReadFile(path); err != nil || !bytes.Equal(b, b2) {
		return
	}
	os.Remove(path)
}

// lockStale judges a lock file's content (with the file mtime as a
// fallback clock for unparseable content).
func lockStale(content []byte, mod time.Time) bool {
	fields := strings.Fields(string(content))
	if len(fields) < 2 {
		return time.Since(mod) > lockEmptyTTL
	}
	pid, err1 := strconv.Atoi(fields[0])
	startNano, err2 := strconv.ParseInt(fields[1], 10, 64)
	if err1 != nil || err2 != nil || pid <= 0 {
		return time.Since(mod) > lockEmptyTTL
	}
	if age := time.Since(time.Unix(0, startNano)); age > lockStaleTTL {
		return true // pid recycled or cross-machine holder: TTL decides
	}
	if len(fields) >= 3 {
		if host, err := os.Hostname(); err == nil && fields[2] != host {
			return false // foreign holder: only the TTL above applies
		}
	}
	return !pidAlive(pid)
}

// pidAlive reports whether pid is a live process on this host, treating
// permission errors as alive (the process exists, it just isn't ours).
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrProcessDone) || errors.Is(err, syscall.ESRCH) {
		return false
	}
	return true
}
