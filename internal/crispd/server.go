// Package crispd implements the sweep job server: a long-lived HTTP
// service in front of the runner/store machinery that accepts specs of
// the kinds in its kind table (kinds.go: one row per kind, from which the
// routes, the decoder and gate, the store loaders and the client's paths
// all come) from many clients, deduplicates them against its job table
// and the persistent store, and executes them on a bounded worker pool.
// Each kind has one way in, POST {path}, and one way out, GET
// {path}/{key}.
//
// The layering is strict: crispd adds no simulation semantics. A spec's
// kind and content key are its identity here exactly as they are in the
// runner's memo table and the store's file names, so the same dedup
// guarantee holds end to end — any number of clients submitting one spec
// cost one simulation, whether they collide in the job table (this
// process), the advisory file locks (a sibling process on the same
// store), or the store itself (a finished entry is served without a
// queue slot).
//
// Robustness contract:
//
//   - per-request deadlines (?timeout=30s) become context deadlines on
//     the job and cancel the simulation mid-cycle-loop via
//     sim.RunContext;
//   - the queue is bounded: submissions past the limit get 429 with
//     Retry-After rather than unbounded memory growth;
//   - resubmission is idempotent: a key that is queued, running or done
//     attaches, a failed key restarts;
//   - SIGTERM drains gracefully: fresh work is refused (503) while held
//     results are still answered, in-flight jobs finish and publish to
//     the store, locks are released; if the drain deadline expires the
//     jobs are cancelled, which also releases their locks.
package crispd

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"crisp/internal/runner"
)

// Options configure a Server.
type Options struct {
	// Store is the shared persistent store directory ("" = RAM only; a
	// store is what makes restarts and sibling processes share work).
	Store string
	// Workers bounds concurrent simulations (0 = GOMAXPROCS), and so every
	// goroutine that simulates: a sampled run plays its windows in order
	// on the worker that runs it.
	Workers int
	// Queue bounds jobs that are queued or running; submissions beyond
	// it get 429 + Retry-After (0 = 256).
	Queue int
	// MetricsJSONL mirrors the runner option: per-run cycle accounting
	// appended server-side.
	MetricsJSONL string
}

// Server is the crispd job server. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	r          *runner.Runner
	jobsCtx    context.Context
	stopJobs   context.CancelFunc
	queueLimit int
	start      time.Time
	stored     bool // the runner has a persistent store: a done entry may leave the table

	mu       sync.Mutex
	jobs     map[jobID]*job   // submissions and validated store entries: the one table
	lru      *list.List       // done entries in the table, most recently served first
	budget   int64            // resultCacheBudget; the done bytes a store-backed table keeps
	cache    ResultCacheStats // the table's traffic, and its done bytes
	active   int              // jobs queued or running
	draining bool
	wg       sync.WaitGroup // one per job goroutine
}

// resultCacheBudget bounds the done bytes a store-backed server keeps in
// its table: 64 MiB is ~13 000 single-core results (≈5 kB each), far
// beyond the distinct keys of a figure sweep, and small next to the
// simulator's own heap. It is a constant, not a knob: an entry that leaves
// is read back from the store when next asked for, so no workload needs
// another value to be correct. Without a store nothing leaves: the runner
// memo keeps the decoded result, but only a submission reaches it, so a
// status poll would no longer find the key.
const resultCacheBudget = 64 << 20

// jobID names a table entry: an analysis and a footprint of one
// AnalysisSpec share a content key, so the key alone does not.
type jobID struct{ kind, key string }

// job is one table entry: a submission, or a validated store entry, which
// is born done and has no submission time. All fields are guarded by
// Server.mu except done, which is closed exactly once: by the job
// goroutine, or at birth.
type job struct {
	id                           jobID
	state                        JobState
	err                          error
	submitted, started, finished time.Time
	raw                          json.RawMessage // a done entry's wire bytes, its one copy; never mutated
	done                         chan struct{}
	elem                         *list.Element // on Server.lru while done and in the table
}

// New returns a Server executing jobs under ctx: cancelling it aborts
// all in-flight work (Drain is the graceful path).
func New(ctx context.Context, opts Options) (*Server, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobsCtx, stop := context.WithCancel(ctx)
	s := &Server{
		jobsCtx:    jobsCtx,
		stopJobs:   stop,
		queueLimit: opts.Queue,
		start:      time.Now(),
		jobs:       make(map[jobID]*job),
		lru:        list.New(),
		budget:     resultCacheBudget,
	}
	if s.queueLimit <= 0 {
		s.queueLimit = 256
	}
	r, err := runner.New(jobsCtx, runner.Options{
		Workers:      opts.Workers,
		CacheDir:     opts.Store,
		MetricsJSONL: opts.MetricsJSONL,
		OnEvent:      s.onTaskEvent,
	})
	if err != nil {
		stop()
		return nil, err
	}
	s.r, s.stored = r, r.Store().Enabled()
	return s, nil
}

// Runner exposes the underlying executor (statsz, tests).
func (s *Server) Runner() *runner.Runner { return s.r }

// onTaskEvent marks a job running when the runner grants its task a
// worker token. Terminal states are set by the job goroutine instead,
// which has the result in hand; dependency tasks (analyses, checkpoint
// sets) have their own keys and only update jobs that were submitted for
// them directly.
func (s *Server) onTaskEvent(ev runner.TaskEvent) {
	if ev.State != runner.TaskRunning {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[jobID{ev.Kind, ev.Key}]; j != nil && j.state == StateQueued {
		j.state, j.started = StateRunning, time.Now()
	}
}

// Why a valid submission is turned away, and what refuse answers.
var (
	errDraining = errors.New("crispd: draining, not accepting new work")
	errBusy     = errors.New("crispd: job queue full")
)

// refuse answers a submission admit did not take: 503 while draining,
// 429 with Retry-After when full.
func refuse(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	}
	http.Error(w, err.Error(), code)
}

// execute runs one job to completion on the server's job context, with
// the submission's deadline (if any) layered on top: it flows into
// sim.RunContext and stops the cycle loop mid-simulation.
func (s *Server) execute(j *job, timeout time.Duration, exec execFunc) {
	defer s.wg.Done()
	ctx := s.jobsCtx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	v, err := exec(ctx)
	// Encode before taking s.mu: the bytes are what every later response
	// for this job carries, and no request waits on the lock meanwhile.
	var raw json.RawMessage
	if err == nil {
		if raw, err = json.Marshal(v); err != nil {
			err = fmt.Errorf("crispd: encode result: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.state, j.err = StateFailed, err
	} else {
		j.state, j.raw = StateDone, raw
		s.keepLocked(j)
	}
	s.active--
	close(j.done)
}

// statusLocked renders the job as wire state. The status shares the
// job's encoded bytes (read-only once done): no encoding happens under
// s.mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{Key: j.id.key, Kind: j.id.kind, State: j.state, Submitted: unixNS(j.submitted), Started: unixNS(j.started), Finished: unixNS(j.finished), Result: j.raw}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func unixNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// lookup finds the entry for (k, key) in the order every request
// follows: the table, then the store, then nothing (a submission starts a
// job). A failed entry holds no result, so the store is asked before it
// answers. A validated store entry joins the table born done. Hits count
// done entries served from memory, misses store reads.
func (s *Server) lookup(k *kind, key string) *job {
	id := jobID{k.name, key}
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && j.state == StateDone {
		s.cache.Hits++
		s.lru.MoveToFront(j.elem)
	}
	held := live(j)
	s.mu.Unlock()
	if !s.stored || held {
		return j
	}
	raw, ok := k.load(s.r.Store(), k.name, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.Misses++
	if ok {
		return s.adoptLocked(id, raw)
	}
	return s.jobs[id]
}

// adoptLocked enters a validated store entry into the table, born done,
// and returns the entry that answers for id: a live or done one that got
// there first stands (a store entry is content-addressed, so its bytes
// are equal), a failed one is replaced.
func (s *Server) adoptLocked(id jobID, raw json.RawMessage) *job {
	if j := s.jobs[id]; live(j) {
		return j
	}
	j := &job{id: id, state: StateDone, raw: raw, done: make(chan struct{})}
	close(j.done)
	s.jobs[id] = j
	s.keepLocked(j)
	return j
}

// keepLocked charges the done entry j, which is in the table, to the
// budget. With a store, the least recently served done entries leave the
// table until their bytes fit it again; an entry larger than the whole
// budget is served by whoever holds it but not kept, and evicts nothing.
// Without a store nothing leaves.
func (s *Server) keepLocked(j *job) {
	size := int64(len(j.raw))
	if s.stored && size > s.budget {
		delete(s.jobs, j.id)
		return
	}
	j.elem = s.lru.PushFront(j)
	s.cache.Bytes += size
	for s.stored && s.cache.Bytes > s.budget {
		old := s.lru.Remove(s.lru.Back()).(*job)
		delete(s.jobs, old.id)
		s.cache.Bytes -= int64(len(old.raw))
		s.cache.Evictions++
	}
}

// Drain stops accepting new work and waits for in-flight jobs to finish
// and publish. When ctx expires first, the remaining jobs are cancelled
// — their runner tasks unwind through the deferred lock releases, so
// even a forced drain leaves no .lock files behind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stopJobs()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("crispd: drain: jobs still running after cancellation")
		}
		return ctx.Err()
	}
}

// Abort cancels all in-flight jobs immediately (the second-signal
// path); their goroutines still run to completion recording the error.
func (s *Server) Abort() { s.stopJobs() }

// Close aborts outstanding work and closes the runner's metrics file,
// returning the first error writing it.
func (s *Server) Close() error {
	s.stopJobs()
	return s.r.Close()
}

// ------------------------------------------------------------- handlers

// Handler returns the crispd HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, k := range kinds {
		mux.HandleFunc("POST "+k.path, func(w http.ResponseWriter, req *http.Request) { s.handleSubmit(w, req, k) })
		mux.HandleFunc("GET "+k.path+"/{key}", func(w http.ResponseWriter, req *http.Request) { s.handleStatus(w, req, k) })
	}
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxSpecBytes bounds request bodies: specs are small; a co-run of many
// cores still fits comfortably.
const maxSpecBytes = 8 << 20

func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeStatus writes a result-carrying status as writeJSON would, byte
// for byte, without sending the result back through the encoder: st.Result
// is canonical already (json.Marshal output, the only way bytes enter a
// table entry), so compacting and re-validating it per response is pure
// cost. The small head is marshalled and the result spliced in as the
// last field, where the encoder puts it.
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	raw := st.Result
	if len(raw) == 0 {
		writeJSON(w, code, st)
		return
	}
	st.Result = nil
	head, err := json.Marshal(st)
	if err != nil { // a struct of strings and integers: cannot fail
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body := make([]byte, 0, len(head)+len(`,"result":`)+len(raw)+1)
	body = append(body, head[:len(head)-1]...)
	body = append(body, `,"result":`...)
	body = append(body, raw...)
	body = append(body, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client gone = nothing to do
}

// live reports whether j is an entry that answers for its id: queued,
// running or done.
func live(j *job) bool { return j != nil && j.state != StateFailed }

// admit is the one admission path. A result this server holds, or another
// process (or a previous life of this server) published, is found outside
// the lock and costs no queue slot; a queued or running job of the same
// spec is attached to. Only fresh work is refused: while draining, and when
// the queue is full. A failed entry is replaced, so resubmission restarts
// it. It returns the entry that answers and its status, result included.
func (s *Server) admit(k *kind, key string, exec execFunc, timeout time.Duration) (*job, JobStatus, error) {
	j := s.lookup(k, key)
	id := jobID{k.name, key}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !live(j) {
		j = s.jobs[id] // what came since lookup
	}
	if !live(j) {
		switch {
		case s.draining:
			return nil, JobStatus{}, errDraining
		case s.active >= s.queueLimit:
			return nil, JobStatus{}, fmt.Errorf("%w: limit %d", errBusy, s.queueLimit)
		}
		j = &job{id: id, state: StateQueued, submitted: time.Now(), done: make(chan struct{})}
		s.jobs[id] = j
		s.active++
		s.wg.Add(1)
		go s.execute(j, timeout, exec)
	}
	return j, j.statusLocked(), nil
}

// handleSubmit is the one submission handler: the row's job, admission,
// an optional synchronous wait, the status response.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request, k *kind) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	key, exec, err := k.job(s.r, body)
	var timeout time.Duration
	if err == nil {
		timeout, err = parseTimeout(req)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j, st, err := s.admit(k, key, exec, timeout)
	if err != nil {
		refuse(w, err)
		return
	}
	if wantWait(req) && !st.State.terminal() {
		select {
		case <-j.done:
		case <-req.Context().Done():
			return // client gone; the job keeps running for other attachers
		}
		s.mu.Lock()
		st = j.statusLocked()
		s.mu.Unlock()
	}
	code := http.StatusAccepted
	if st.State.terminal() {
		code = http.StatusOK
	}
	writeStatus(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request, k *kind) {
	key := req.PathValue("key")
	j := s.lookup(k, key)
	if j == nil {
		http.Error(w, "unknown "+k.name+" key "+key, http.StatusNotFound)
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleStatsz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	byState := make(map[string]int, 4)
	for _, j := range s.jobs {
		if !j.submitted.IsZero() { // a store entry was never a job
			byState[string(j.state)]++
		}
	}
	st := Statsz{
		UptimeS:     time.Since(s.start).Seconds(),
		Draining:    s.draining,
		QueueDepth:  s.active,
		QueueLimit:  s.queueLimit,
		Jobs:        byState,
		Runner:      s.r.Stats(),
		ResultCache: s.cache,
	}
	s.mu.Unlock()
	st.HeapLiveBytes = heapLive()
	writeJSON(w, http.StatusOK, st)
}

// heapLive is the heap the last garbage collection found reachable: what a
// long-lived server holds, memoized results and workload images included.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s) // a metric of every Go since 1.21; go.mod asks for 1.22
	return s[0].Value.Uint64()
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// ------------------------------------------------------- store plumbing

// loadResult reads the store entry for (kind, key) through its result
// type — Store.Get validates it and deletes a corrupt entry so the next
// producer recomputes it — and re-marshals it to the exact JSON a fresh
// computation would return (the store holds the same encoding, so the
// round trip is loss-free).
func loadResult[T any](st *runner.Store, kind, key string) (json.RawMessage, bool) {
	var res T
	if !st.Get(kind, key, &res) {
		return nil, false
	}
	raw, err := json.Marshal(&res)
	return raw, err == nil
}

// --------------------------------------------------------- query params

func parseTimeout(req *http.Request) (time.Duration, error) {
	q := req.URL.Query().Get("timeout")
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad timeout %q: want a positive Go duration, e.g. 30s", q)
	}
	return d, nil
}

func wantWait(req *http.Request) bool {
	switch req.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}
