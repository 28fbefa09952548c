package runner

import (
	"context"
	"sync"
	"testing"

	"crisp/internal/sim"
)

// TestTaskEvents: an owned task emits queued → running → done exactly
// once with the store-style (kind, key) pair, and a memoized re-request
// emits nothing (single-flight = one lifecycle per key).
func TestTaskEvents(t *testing.T) {
	var mu sync.Mutex
	var events []TaskEvent
	r, err := New(context.Background(), Options{Workers: 2, OnEvent: func(ev TaskEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Workload: "pointerchase", Insts: 20_000}
	if _, err := r.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), spec); err != nil { // memoized: no new events
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var seq []TaskState
	for _, ev := range events {
		if ev.Kind != kindRun || ev.Key != spec.Key() {
			t.Errorf("unexpected event (%s, %s): want kind %q key %q", ev.Kind, ev.Key, kindRun, spec.Key())
			continue
		}
		if ev.Err != nil {
			t.Errorf("event %v carries error %v", ev.State, ev.Err)
		}
		seq = append(seq, ev.State)
	}
	want := []TaskState{TaskQueued, TaskRunning, TaskDone}
	if len(seq) != len(want) {
		t.Fatalf("event sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("event sequence %v, want %v", seq, want)
		}
	}
}

// TestRemoteExcludesLocalStore: a remote runner must not also persist
// locally — the server owns the store.
func TestRemoteExcludesLocalStore(t *testing.T) {
	if _, err := New(context.Background(), Options{Remote: stubRemote{}, CacheDir: t.TempDir()}); err == nil {
		t.Error("New accepted Remote together with CacheDir")
	}
}

// stubRemote satisfies Remote without doing anything; only New's
// validation is under test.
type stubRemote struct{ Remote }
