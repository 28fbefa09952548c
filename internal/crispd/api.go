package crispd

import (
	"encoding/json"

	"crisp/internal/runner"
)

// Wire types shared by the server handlers and the HTTP client. The
// payloads inside them are the existing spec and result types: a job's
// Result field carries the same JSON the persistent store holds for
// that (kind, key), so a remote client decodes byte-identical state to
// a local store hit.

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states. A job is created queued, becomes running when
// the runner grants it a worker token, and ends done or failed. A
// failed job's key is resubmittable: the next POST for it starts a
// fresh attempt (the runner drops failed computations from its memo
// table for the same reason).
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool { return s == StateDone || s == StateFailed }

// JobStatus is the server's description of one job: the response body
// of submissions and status polls.
type JobStatus struct {
	// Key is the spec's deterministic content key — the job's identity.
	// Submitting a spec with the key of a queued or running job attaches
	// to it instead of starting new work.
	Key string `json:"key"`
	// Kind is the task family: "run", "multi", "analysis" or "footprint"
	// (the persistent store's file-name prefixes).
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// Error is the failure message when State is "failed".
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are Unix nanoseconds (0 = not yet).
	Submitted int64 `json:"submitted_unix_ns,omitempty"`
	Started   int64 `json:"started_unix_ns,omitempty"`
	Finished  int64 `json:"finished_unix_ns,omitempty"`
	// Result holds the task's result when State is "done": a
	// core.Result for runs, sim.MultiResult for multi, crisp.Analysis /
	// crisp.Footprint for the pipeline kinds. Every reply about a done job
	// carries it. On the server it is always json.Marshal
	// output shared with the table entry, the server's one copy of the
	// result's wire bytes (the runner memo holds the decoded result too)
	// — never mutated, and spliced into the response as is (writeStatus);
	// the client shadows it with a typed field and never sees it raw
	// (reply).
	Result json.RawMessage `json:"result,omitempty"`
}

// Statsz is the GET /v1/statsz payload: the runner's progress counters
// plus the server's own job accounting, for scraping.
type Statsz struct {
	UptimeS    float64 `json:"uptime_s"`
	Draining   bool    `json:"draining"`
	QueueDepth int     `json:"queue_depth"` // jobs queued or running
	QueueLimit int     `json:"queue_limit"`
	// Jobs counts the submitted entries of the job table by state. An
	// entry read from the store was never submitted and is not counted,
	// and a done job that leaves the table under its byte budget leaves
	// the count.
	Jobs   map[string]int `json:"jobs"`
	Runner runner.Stats   `json:"runner"`
	// ResultCache describes the done entries of the job table, which hold
	// each result's wire bytes. The runner memo holds the decoded results
	// for the runner's life beside them (HeapLiveBytes counts both).
	ResultCache ResultCacheStats `json:"result_cache"`
	// HeapLiveBytes is the heap the last GC found live (runtime/metrics
	// /gc/heap/live:bytes), all of it, not only the runner's.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
}

// ResultCacheStats counts the job table's result traffic since the server
// started: hits are done entries served from memory, misses are store
// reads (whether or not the store had the entry), bytes are the done bytes
// held (a storeless server's too), and evictions are done entries a
// store-backed server dropped to stay within its budget.
type ResultCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}
