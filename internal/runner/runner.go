// Package runner executes declarative simulation jobs (sim.RunSpec,
// sim.MultiSpec and the software-pipeline specs derived from them) on a
// bounded worker pool with content-keyed deduplication and memoization.
//
// The experiment harness submits the flat set of specs behind every
// requested figure at once; the runner collapses identical specs to a
// single execution (figures share OOO baselines and train profiles),
// saturates the pool across figure boundaries and honours context
// cancellation mid-simulation. Six task kinds persist in a Store shared
// safely between processes — run, multi, analysis, footprint, and the two
// checkpoint-set kinds — and each reaches its value through the one
// ladder in resolve (tasks.go): delegate to a crispd server if the runner
// has one, else load, lock, load again, compute, publish. Run and RunMulti
// compute through one timing path (simulate), Run as the one-core co-run,
// and a process runs each distinct simulation once: once per checkpoint
// set and per-core sim.RunSpec.SimKey, for single-core runs and co-runs
// alike.
//
// The memo keeps every value for the runner's life but a checkpoint set,
// which a runner with a store keeps only while a run over it is pending.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configure a Runner.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS), and so every
	// goroutine that simulates: a sampled run plays its windows in order
	// on the worker that runs it.
	Workers int
	// CacheDir, when non-empty, persists results there as JSON keyed by
	// spec hash + code version; re-runs load them instead of simulating.
	CacheDir string
	// MetricsJSONL, when non-empty, appends one JSON record per resolved
	// timing run (identity + cycle-accounting breakdown + histograms).
	MetricsJSONL string
	// OnEvent, when non-nil, observes every owned task's lifecycle
	// (queued → running → done/failed). The callback runs on task
	// goroutines with no runner locks held; it must be fast and must not
	// call back into the runner synchronously. crispd uses it to mark a
	// submitted job running.
	OnEvent func(TaskEvent)
	// Remote, when non-nil, delegates run/multi/analysis/footprint tasks
	// to a crispd job server instead of simulating locally. Mutually
	// exclusive with CacheDir: the server owns persistence and
	// cross-client dedup.
	Remote Remote
}

// Stats is a snapshot of the runner's progress counters.
type Stats struct {
	Started      int64 // unique tasks registered (deduped)
	Done         int64 // tasks finished (success or failure)
	Failed       int64 // tasks finished with an error
	Executed     int64 // run and multi results computed here rather than loaded or delegated
	Shared       int64 // of those, results that joined another spec's simulation (see sim.RunSpec.SimKey)
	DiskHits     int64 // results served from the persistent cache
	CkptCaptured int64 // checkpoint sets captured (fast-forward executed)
	CkptDiskHits int64 // checkpoint sets loaded from the persistent store
	CaptureNS    int64 // host time spent inside checkpoint captures
	WarmInsts    int64 // instructions streamed through capture warming
	DetailNS     int64 // host time of the detailed simulations executed here (core.Run)
	DetailInsts  int64 // instructions those simulations committed
	LockWaitNS   int64 // total time blocked on cross-process file locks
	RemoteRuns   int64 // tasks resolved by a remote crispd server
}

// Runner is a context-aware single-flight executor: each distinct task
// key runs at most once, concurrent requesters share the result, and at
// most Workers tasks simulate at a time.
type Runner struct {
	ctx     context.Context
	sem     chan struct{}
	store   *Store
	sink    *metricsSink
	onEvent func(TaskEvent)
	remote  Remote

	mu     sync.Mutex
	calls  map[string]*call
	demand map[string]int // per set memo key, the sampled runs not yet returned (need)

	started, done, failed, executed, diskHits atomic.Int64
	shared                                    atomic.Int64
	ckptCaptured, ckptDiskHits, lockWaitNS    atomic.Int64
	captureNS, warmInsts                      atomic.Int64
	detailNS, detailInsts                     atomic.Int64
	remoteRuns                                atomic.Int64
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a Runner. ctx is the base context for background
// submissions (Submit*); cancelling it aborts in-flight work.
func New(ctx context.Context, opts Options) (*Runner, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Remote != nil && opts.CacheDir != "" {
		return nil, fmt.Errorf("runner: remote execution and a local store are mutually exclusive: the server owns persistence and dedup")
	}
	store, err := NewStore(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	sink, err := newMetricsSink(opts.MetricsJSONL)
	if err != nil {
		return nil, err
	}
	return &Runner{
		ctx:     ctx,
		sem:     make(chan struct{}, workers),
		store:   store,
		sink:    sink,
		onEvent: opts.OnEvent,
		remote:  opts.Remote,
		calls:   make(map[string]*call),
		demand:  make(map[string]int),
	}, nil
}

// Store returns the runner's persistent store. It is never nil; a
// runner without a cache dir holds a disabled store. crispd reads it to
// serve already-published results without occupying a queue slot.
func (r *Runner) Store() *Store { return r.store }

// Close closes the metrics file (no-op when none is configured) and
// returns the first error writing it. The runner remains usable for
// simulation afterwards; only metrics export stops.
func (r *Runner) Close() error { return r.sink.close() }

// Stats returns a snapshot of the progress counters. Started grows as
// submitted specs resolve their dependencies, so Done/Started is a live
// progress fraction, not a fixed total.
func (r *Runner) Stats() Stats {
	return Stats{
		Started:      r.started.Load(),
		Done:         r.done.Load(),
		Failed:       r.failed.Load(),
		Executed:     r.executed.Load(),
		Shared:       r.shared.Load(),
		DiskHits:     r.diskHits.Load(),
		CkptCaptured: r.ckptCaptured.Load(),
		CkptDiskHits: r.ckptDiskHits.Load(),
		CaptureNS:    r.captureNS.Load(),
		WarmInsts:    r.warmInsts.Load(),
		DetailNS:     r.detailNS.Load(),
		DetailInsts:  r.detailInsts.Load(),
		LockWaitNS:   r.lockWaitNS.Load(),
		RemoteRuns:   r.remoteRuns.Load(),
	}
}

// slot tracks whether the current goroutine holds a worker token. It is
// threaded through contexts so that a task computing a dependency
// in-line keeps its token, while a task *waiting* on someone else's
// in-flight computation releases its token back to the pool.
type slot struct{ held bool }

type slotCtxKey struct{}

func (r *Runner) acquire(ctx context.Context, s *slot) error {
	if s.held {
		return nil
	}
	select {
	case r.sem <- struct{}{}:
		s.held = true
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runner) release(s *slot) {
	if s.held {
		<-r.sem
		s.held = false
	}
}

// ctxErr reports whether err is a context cancellation or deadline.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do returns the memoized value for key, computing it with fn at most
// once across all concurrent callers. The owning caller runs fn on a
// worker token (acquiring one unless it already holds one); joining
// callers release any token they hold while they wait, so a pool of
// tasks blocked on one shared dependency does not idle the machine.
// Failed computations are not memoized: cancellation of one caller
// leaves the key recomputable by the next. A task that is not visible
// counts in no Stats field and emits no TaskEvent: the runner's own
// sharing beneath the tasks a caller asked for.
func (r *Runner) do(ctx context.Context, key string, visible bool, fn func(context.Context) (any, error)) (any, error) {
	track := func(state TaskState, err error) {
		if !visible {
			return
		}
		switch state {
		case TaskQueued:
			r.started.Add(1)
		case TaskFailed:
			r.failed.Add(1)
		}
		r.emit(key, state, err)
		if state >= TaskDone {
			r.done.Add(1)
		}
	}
	for {
		r.mu.Lock()
		if c, ok := r.calls[key]; ok {
			r.mu.Unlock()
			s, _ := ctx.Value(slotCtxKey{}).(*slot)
			joinedWithToken := s != nil && s.held
			if joinedWithToken {
				r.release(s)
			}
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if joinedWithToken {
				if err := r.acquire(ctx, s); err != nil {
					return nil, err
				}
			}
			if c.err != nil && ctxErr(c.err) && ctx.Err() == nil {
				continue // owner was cancelled but we are alive: recompute
			}
			return c.val, c.err
		}
		c := &call{done: make(chan struct{})}
		r.calls[key] = c
		r.mu.Unlock()
		track(TaskQueued, nil)

		s, _ := ctx.Value(slotCtxKey{}).(*slot)
		if s == nil {
			s = &slot{}
			ctx = context.WithValue(ctx, slotCtxKey{}, s)
		}
		nested := s.held
		if err := r.acquire(ctx, s); err != nil {
			c.err = err
		} else {
			track(TaskRunning, nil)
			c.val, c.err = fn(ctx)
			if !nested {
				r.release(s)
			}
		}
		if c.err != nil {
			// Drop failures from the memo table so a later attempt (for
			// example after a cancelled sweep resumes) can recompute.
			r.mu.Lock()
			if r.calls[key] == c {
				delete(r.calls, key)
			}
			r.mu.Unlock()
			track(TaskFailed, c.err)
		} else {
			track(TaskDone, nil)
		}
		close(c.done)
		return c.val, c.err
	}
}

// need counts one demand for the checkpoint set under memo key key ("" for
// none) and returns its end. At the last end a finished set leaves the memo,
// to be read back from the store, not recaptured; a storeless runner has no
// copy and keeps it. A run's demand starts at submission: started at its
// token or its join, a sibling queued behind the first run finds the set gone.
func (r *Runner) need(key string) (done func()) {
	if key == "" || !r.store.Enabled() {
		return func() {}
	}
	r.mu.Lock()
	r.demand[key]++
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.demand[key]--; r.demand[key] > 0 {
			return
		}
		delete(r.demand, key)
		if c, ok := r.calls[key]; ok {
			select {
			case <-c.done: // finished, so successful: do drops failures first
				delete(r.calls, key)
			default: // in flight: never dropped
			}
		}
	}
}

// lockTask acquires the cross-process file lock for (kind, key),
// releasing the caller's worker token while blocked so lock waits never
// idle the pool, and charging the wait to the LockWaitNS counter. It
// returns the release function and the wait in nanoseconds; on a
// disabled store it is a no-op.
func (r *Runner) lockTask(ctx context.Context, kind, key string) (func(), int64, error) {
	if !r.store.Enabled() {
		return func() {}, 0, nil
	}
	s, _ := ctx.Value(slotCtxKey{}).(*slot)
	held := s != nil && s.held
	if held {
		r.release(s)
	}
	rel, waited, err := r.store.Lock(ctx, kind, key)
	r.lockWaitNS.Add(waited.Nanoseconds())
	if held {
		if aerr := r.acquire(ctx, s); aerr != nil {
			if err == nil {
				rel()
			}
			return nil, 0, aerr
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return rel, waited.Nanoseconds(), nil
}
