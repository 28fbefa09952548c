package crispd

import (
	"encoding/json"

	"crisp/internal/runner"
	"crisp/internal/sim"
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
// of submissions and status polls, and (without Result) the event
// payload of the progress stream.
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
	// crisp.Footprint for the pipeline kinds. Status polls include it;
	// progress events omit it. On the server it is always json.Marshal
	// output shared with the job or the published-result cache — never
	// mutated, and spliced into the response as is (writeStatus); the
	// client shadows it with a typed field and never sees it raw (reply).
	Result json.RawMessage `json:"result,omitempty"`
	// Task, set only on progress-stream events, describes dependency-task
	// activity observed while the job is live: checkpoint-set captures
	// ("ckpt ... running") that explain why a cold sampled submission sits
	// in "running" with no visible progress. It annotates the event, never
	// the job's own state, and the runner does not attribute dependencies
	// to parents, so the note reaches every live subscriber.
	Task string `json:"task,omitempty"`
}

// SweepRequest is the POST /v1/sweeps payload: a batch of specs
// submitted as one atomic unit against the queue bound. The server
// dedups each spec against the store, the job table and the runner's
// single-flight before it costs a queue slot.
type SweepRequest struct {
	Runs   []sim.RunSpec   `json:"runs,omitempty"`
	Multis []sim.MultiSpec `json:"multis,omitempty"`
	// Timeout, when non-empty, is a Go duration string applied to every
	// newly started job in the batch (attached jobs keep the deadline of
	// the submission that started them).
	Timeout string `json:"timeout,omitempty"`
}

// SweepResponse lists the per-spec job statuses in request order (runs
// first, then multis).
type SweepResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// Statsz is the GET /v1/statsz payload: the runner's progress counters
// plus the server's own job accounting, for scraping.
type Statsz struct {
	UptimeS    float64        `json:"uptime_s"`
	Draining   bool           `json:"draining"`
	QueueDepth int            `json:"queue_depth"` // jobs queued or running
	QueueLimit int            `json:"queue_limit"`
	Jobs       map[string]int `json:"jobs"` // job count by state
	Runner     runner.Stats   `json:"runner"`
	// ResultCache describes the in-memory copies of published store
	// entries. A request answered from it (or from the store at all) never
	// becomes a job, so Jobs does not count it.
	ResultCache ResultCacheStats `json:"result_cache"`
}

// ResultCacheStats counts the published-result cache's traffic since the
// server started: lookups answered from memory, lookups that went to the
// store (whether or not it had the entry), bytes currently held and
// entries dropped to stay within the budget.
type ResultCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}
