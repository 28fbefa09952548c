// Package crispd implements the sweep job server: a long-lived HTTP
// service in front of the runner/store machinery that accepts specs of
// the kinds in its kind table (kinds.go: one row per kind, from which the
// routes, the admission gate, the store loaders and the client's paths
// all come) from many clients, deduplicates them against the persistent
// store and the in-flight job table, executes them on a bounded worker
// pool, and streams progress.
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
//   - SIGTERM drains gracefully: new work is refused (503), in-flight
//     jobs finish and publish to the store, locks are released; if the
//     drain deadline expires the jobs are cancelled, which also
//     releases their locks.
package crispd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"crisp/internal/runner"
	"crisp/internal/sim"
)

// Options configure a Server.
type Options struct {
	// Store is the shared persistent store directory ("" = RAM only; a
	// store is what makes restarts and sibling processes share work).
	Store string
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
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

	published *resultCache // wire bytes of validated store entries; has its own lock

	mu       sync.Mutex
	jobs     map[jobID]*job
	active   int // jobs queued or running
	draining bool
	wg       sync.WaitGroup // one per job goroutine
}

// jobID names a job, and the published entry it leaves: an analysis and a
// footprint of one AnalysisSpec share a content key, so the key alone
// does not.
type jobID struct{ kind, key string }

// job is one tracked submission. All fields are guarded by Server.mu
// except done, which is closed exactly once by the job goroutine.
type job struct {
	id                           jobID
	state                        JobState
	err                          error
	submitted, started, finished time.Time
	raw                          json.RawMessage // the result's wire bytes, encoded once by execute
	done                         chan struct{}
	subs                         []chan JobStatus
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
		published:  newResultCache(resultCacheBudget),
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
	s.r = r
	return s, nil
}

// Runner exposes the underlying executor (statsz, tests).
func (s *Server) Runner() *runner.Runner { return s.r }

// onTaskEvent marks a job running when the runner grants its task a
// worker token. Terminal states are set by the job goroutine instead,
// which has the result in hand; dependency tasks (analyses) have their
// own keys and only update jobs that were submitted for them directly.
//
// Checkpoint-set captures are the exception: a cold sampled submission
// spends its first seconds fast-forwarding inside the capture, which
// looks like a silently stuck "running" job. The runner emits lifecycle
// events for the capture's own key, but cannot attribute it to the job
// that triggered it, so capture events are fanned out as Task
// annotations to every live subscriber — they describe store-level
// activity, never change any job's state.
func (s *Server) onTaskEvent(ev runner.TaskEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Kind == runner.KindCkpt || ev.Kind == runner.KindMultiCkpt {
		note := fmt.Sprintf("%s %s %s", ev.Kind, ev.Key, ev.State)
		if ev.Err != nil {
			note += ": " + ev.Err.Error()
		}
		for _, j := range s.jobs {
			if !j.state.terminal() && len(j.subs) > 0 {
				j.notifyLocked(note)
			}
		}
		return
	}
	j := s.jobs[jobID{ev.Kind, ev.Key}]
	if j == nil || j.state.terminal() {
		return
	}
	if ev.State == runner.TaskRunning && j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		j.notifyLocked("")
	}
}

// Why a valid submission is turned away, and what refuse answers.
var (
	errDraining = errors.New("crispd: draining, not accepting new work")
	errBusy     = errors.New("crispd: job queue full")
)

// refuse answers a submission the queue did not take: 503 while
// draining, 429 with Retry-After when full.
func refuse(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	if errors.Is(err, errBusy) {
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	}
	http.Error(w, err.Error(), code)
}

// submitLocked attaches to an existing job for id or starts a new one.
// Callers hold s.mu and have already consulted the store.
func (s *Server) submitLocked(id jobID, timeout time.Duration, exec execFunc) (*job, error) {
	if s.draining {
		return nil, errDraining
	}
	if j, ok := s.jobs[id]; ok && j.state != StateFailed {
		return j, nil // idempotent: queued/running attaches, done returns
	}
	if s.active >= s.queueLimit {
		return nil, errBusy
	}
	j := &job{id: id, state: StateQueued, submitted: time.Now(), done: make(chan struct{})}
	s.jobs[id] = j // a failed predecessor is replaced: resubmission restarts
	s.active++
	s.wg.Add(1)
	go s.execute(j, timeout, exec)
	return j, nil
}

// execute runs one job to completion on the server's job context, with
// the submission's deadline (if any) layered on top — this is the
// per-request deadline the issue promises: it flows into sim.RunContext
// and stops the cycle loop mid-simulation.
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
	}
	s.active--
	j.notifyLocked("")
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
}

// statusLocked renders the job as wire state. With withResult the
// status shares the job's encoded bytes (read-only once done): no
// encoding happens under s.mu.
func (j *job) statusLocked(withResult bool) JobStatus {
	st := JobStatus{Key: j.id.key, Kind: j.id.kind, State: j.state, Submitted: unixNS(j.submitted), Started: unixNS(j.started), Finished: unixNS(j.finished)}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if withResult {
		st.Result = j.raw
	}
	return st
}

func unixNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// notifyLocked fans the (result-free) status, annotated with task, out
// to subscribers without blocking: the channels are buffered beyond the
// number of lifecycle transitions, so a send can only be dropped on a
// subscriber that has already stopped reading.
func (j *job) notifyLocked(task string) {
	st := j.statusLocked(false)
	st.Task = task
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

// jobLocked finds the job of any kind under key, in table order: a status
// poll names no kind.
func (s *Server) jobLocked(key string) *job {
	for _, k := range kinds {
		if j := s.jobs[jobID{k.name, key}]; j != nil {
			return j
		}
	}
	return nil
}

// subscribe registers a progress listener for key, returning the
// current status alongside. A nil channel with ok=true means the job is
// already terminal: the snapshot is all there is to stream.
func (s *Server) subscribe(key string) (cur JobStatus, ch chan JobStatus, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobLocked(key)
	if j == nil {
		return JobStatus{}, nil, nil, false
	}
	cur = j.statusLocked(false)
	if j.state.terminal() {
		return cur, nil, func() {}, true
	}
	ch = make(chan JobStatus, 8)
	j.subs = append(j.subs, ch)
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return cur, ch, cancel, true
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
	}
	mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/runs/{key}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{key}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxSpecBytes bounds request bodies: specs are small; a sweep of
// thousands of specs still fits comfortably.
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
// job or the published-result cache), so compacting and re-validating it
// per response is pure cost. The small head is marshalled and the result
// spliced in as the last field, which it is unless Task is set.
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	raw := st.Result
	if len(raw) == 0 || st.Task != "" {
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

// handleSubmit is the one submission handler: the row's strict decode
// and admission gate, the store fast path, queue admission, an optional
// synchronous wait, the status response.
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
	// Dedup against the store before any work starts: a result another
	// process (or a previous life of this server) already published is
	// served without costing a queue slot.
	if raw, ok := s.storeResult(k, key); ok {
		writeStatus(w, http.StatusOK, JobStatus{Key: key, Kind: k.name, State: StateDone, Result: raw})
		return
	}
	s.mu.Lock()
	j, err := s.submitLocked(jobID{k.name, key}, timeout, exec)
	s.mu.Unlock()
	if err != nil {
		refuse(w, err)
		return
	}
	if wantWait(req) {
		select {
		case <-j.done:
		case <-req.Context().Done():
			return // client gone; the job keeps running for other attachers
		}
	}
	s.mu.Lock()
	st := j.statusLocked(true)
	s.mu.Unlock()
	code := http.StatusAccepted
	if st.State.terminal() {
		code = http.StatusOK
	}
	writeStatus(w, code, st)
}

// sweepItem is one spec of a sweep, admitted.
type sweepItem struct {
	k      *kind
	key    string
	exec   execFunc
	stored bool
}

// admitAll runs one list of a sweep through its kind's admission gate.
// The specs arrived inside the sweep's strictly decoded body, not through
// the row's decode, so their own Validate runs here.
func admitAll[S spec](r *runner.Runner, k *kind, field string, specs []S, items []sweepItem) ([]sweepItem, error) {
	for i, sp := range specs {
		err := sp.Validate()
		it := sweepItem{k: k}
		if err == nil {
			it.key, it.exec, err = k.admit(r, sp)
		}
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %v", field, i, err)
		}
		items = append(items, it)
	}
	return items, nil
}

func (s *Server) handleSweeps(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	var sr SweepRequest
	if err := sim.DecodeStrict(body, &sr); err != nil {
		http.Error(w, fmt.Sprintf("decode sweep: %v", err), http.StatusBadRequest)
		return
	}
	var timeout time.Duration
	if sr.Timeout != "" {
		var err error
		if timeout, err = time.ParseDuration(sr.Timeout); err != nil || timeout < 0 {
			http.Error(w, fmt.Sprintf("bad sweep timeout %q", sr.Timeout), http.StatusBadRequest)
			return
		}
	}

	items, err := admitAll(s.r, runKind, "runs", sr.Runs, make([]sweepItem, 0, len(sr.Runs)+len(sr.Multis)))
	if err == nil {
		items, err = admitAll(s.r, multiKind, "multis", sr.Multis, items)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Store pass outside the lock: published results cost no queue slot.
	// The same validated lookup as a single submission, not Store.Has: a
	// torn entry reported "done" here could never be fetched (the status
	// poll deletes it and answers 404), so it is a miss and is submitted.
	for i := range items {
		_, items[i].stored = s.storeResult(items[i].k, items[i].key)
	}

	// Admission and submission are one atomic step: either the whole
	// batch fits the queue or none of it starts (a half-admitted sweep
	// would deadlock clients that wait for all their keys).
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		refuse(w, errDraining)
		return
	}
	fresh := 0
	seen := make(map[jobID]bool, len(items))
	for _, it := range items {
		id := jobID{it.k.name, it.key}
		if it.stored || seen[id] {
			continue
		}
		seen[id] = true
		if j, ok := s.jobs[id]; !ok || j.state == StateFailed {
			fresh++
		}
	}
	if s.active+fresh > s.queueLimit {
		s.mu.Unlock()
		refuse(w, fmt.Errorf("%w: %d new jobs over limit %d", errBusy, fresh, s.queueLimit))
		return
	}
	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(items))}
	for _, it := range items {
		if it.stored {
			resp.Jobs = append(resp.Jobs, JobStatus{Key: it.key, Kind: it.k.name, State: StateDone})
			continue
		}
		j, err := s.submitLocked(jobID{it.k.name, it.key}, timeout, it.exec)
		if err != nil { // capacity was pre-checked, draining seen under this lock: cannot happen
			s.mu.Unlock()
			refuse(w, err)
			return
		}
		resp.Jobs = append(resp.Jobs, j.statusLocked(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	s.mu.Lock()
	j := s.jobLocked(key)
	var st JobStatus
	if j != nil {
		st = j.statusLocked(true)
	}
	s.mu.Unlock()
	if j != nil {
		writeStatus(w, http.StatusOK, st)
		return
	}
	if kind, raw, ok := s.storeLookup(key); ok {
		writeStatus(w, http.StatusOK, JobStatus{Key: key, Kind: kind, State: StateDone, Result: raw})
		return
	}
	http.Error(w, "unknown job key "+key, http.StatusNotFound)
}

func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	cur, ch, cancel, ok := s.subscribe(key)
	if !ok {
		if kind, _, found := s.storeLookup(key); found {
			cur, ok = JobStatus{Key: key, Kind: kind, State: StateDone}, true
			cancel = func() {}
		}
	}
	if !ok {
		http.Error(w, "unknown job key "+key, http.StatusNotFound)
		return
	}
	defer cancel()

	flusher, canFlush := w.(http.Flusher)
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	emit := func(st JobStatus) {
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		if sse {
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", b)
		} else {
			w.Write(append(b, '\n')) //nolint:errcheck // detected via Context below
		}
		if canFlush {
			flusher.Flush()
		}
	}
	emit(cur)
	if cur.State.terminal() || ch == nil {
		return
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case st, open := <-ch:
			if !open {
				return
			}
			emit(st)
			if st.State.terminal() {
				return
			}
		case <-req.Context().Done():
			return
		case <-heartbeat.C:
			if sse {
				fmt.Fprint(w, ": heartbeat\n\n")
				if canFlush {
					flusher.Flush()
				}
			}
		}
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	byState := make(map[string]int, 4)
	for _, j := range s.jobs {
		byState[string(j.state)]++
	}
	st := Statsz{
		UptimeS:    time.Since(s.start).Seconds(),
		Draining:   s.draining,
		QueueDepth: s.active,
		QueueLimit: s.queueLimit,
		Jobs:       byState,
		Runner:     s.r.Stats(),
	}
	s.mu.Unlock()
	st.ResultCache = s.published.stats()
	writeJSON(w, http.StatusOK, st)
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

// storeResult returns the wire bytes of the result published under
// (kind, key). The first touch of an entry is the row's loadResult — the
// only way bytes enter — and its output is kept in s.published; every
// later request for the key is answered from memory with no file read,
// decode or marshal. That is sound because a store entry is
// content-addressed (the key hashes the spec and sim.CodeVersion) and
// never rewritten with different content: the validated copy cannot go
// stale, only cold.
func (s *Server) storeResult(k *kind, key string) (json.RawMessage, bool) {
	st := s.r.Store()
	if !st.Enabled() {
		return nil, false
	}
	if raw, ok := s.published.get(k.name, key); ok {
		return raw, true
	}
	raw, ok := k.load(st, k.name, key)
	if ok {
		s.published.add(k.name, key, raw)
	}
	return raw, ok
}

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

// storeLookup finds a published entry for key under any job kind, in
// table order (for status polls of results from a previous server life).
func (s *Server) storeLookup(key string) (kind string, raw json.RawMessage, ok bool) {
	for _, k := range kinds {
		if raw, ok := s.storeResult(k, key); ok {
			return k.name, raw, true
		}
	}
	return "", nil, false
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
