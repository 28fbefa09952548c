// Package crispd implements the sweep job server: a long-lived HTTP
// service in front of the runner/store machinery that accepts RunSpecs
// from many clients, deduplicates them against the persistent store and
// the in-flight job table, executes them on a bounded worker pool, and
// streams progress.
//
// The layering is strict: crispd adds no simulation semantics. A spec's
// content key is its identity here exactly as it is in the runner's
// memo table and the store's file names, so the same dedup guarantee
// holds end to end — any number of clients submitting one spec cost one
// simulation, whether they collide in the job table (this process), the
// advisory file locks (a sibling process on the same store), or the
// store itself (a finished entry is served without a queue slot).
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

	"crisp/internal/core"
	"crisp/internal/crisp"
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
	// WindowWorkers mirrors the runner option: concurrent detailed windows
	// per sampled run (0 = GOMAXPROCS, 1 = sequential).
	WindowWorkers int
	// Queue bounds jobs that are queued or running; submissions beyond
	// it get 429 + Retry-After (0 = 256).
	Queue int
	// MetricsJSONL/MetricsCSV mirror the runner options: per-run cycle
	// accounting appended server-side.
	MetricsJSONL string
	MetricsCSV   string
}

// Server is the crispd job server. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	opts       Options
	r          *runner.Runner
	jobsCtx    context.Context
	stopJobs   context.CancelFunc
	queueLimit int
	start      time.Time

	published *resultCache // wire bytes of validated store entries; has its own lock

	mu       sync.Mutex
	jobs     map[string]*job
	active   int // jobs queued or running
	draining bool
	wg       sync.WaitGroup // one per job goroutine
}

// job is one tracked submission. All fields are guarded by Server.mu
// except done, which is closed exactly once by the job goroutine.
type job struct {
	key, kind                    string
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
		opts:       opts,
		jobsCtx:    jobsCtx,
		stopJobs:   stop,
		queueLimit: opts.Queue,
		start:      time.Now(),
		jobs:       make(map[string]*job),
		published:  newResultCache(resultCacheBudget),
	}
	if s.queueLimit <= 0 {
		s.queueLimit = 256
	}
	r, err := runner.New(jobsCtx, runner.Options{
		Workers:       opts.Workers,
		WindowWorkers: opts.WindowWorkers,
		CacheDir:      opts.Store,
		MetricsJSONL:  opts.MetricsJSONL,
		MetricsCSV:    opts.MetricsCSV,
		OnEvent:       s.onTaskEvent,
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
			if j.state.terminal() || len(j.subs) == 0 {
				continue
			}
			st := j.statusLocked(false)
			st.Task = note
			for _, ch := range j.subs {
				select {
				case ch <- st:
				default:
				}
			}
		}
		return
	}
	j := s.jobs[ev.Key]
	if j == nil || j.state.terminal() {
		return
	}
	if ev.State == runner.TaskRunning && j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		j.notifyLocked()
	}
}

// Submission errors mapped to HTTP statuses by the handlers.
var (
	errDraining = errors.New("crispd: draining, not accepting new work")
	errBusy     = errors.New("crispd: job queue full")
)

// submitLocked attaches to an existing job for key or starts a new one.
// Callers hold s.mu and have already consulted the store.
func (s *Server) submitLocked(kind, key string, timeout time.Duration, exec func(context.Context) (any, error)) (*job, error) {
	if s.draining {
		return nil, errDraining
	}
	if j, ok := s.jobs[key]; ok && j.state != StateFailed {
		return j, nil // idempotent: queued/running attaches, done returns
	}
	if s.active >= s.queueLimit {
		return nil, errBusy
	}
	j := &job{key: key, kind: kind, state: StateQueued, submitted: time.Now(), done: make(chan struct{})}
	s.jobs[key] = j // a failed predecessor is replaced: resubmission restarts
	s.active++
	s.wg.Add(1)
	go s.execute(j, timeout, exec)
	return j, nil
}

func (s *Server) submit(kind, key string, timeout time.Duration, exec func(context.Context) (any, error)) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(kind, key, timeout, exec)
}

// execute runs one job to completion on the server's job context, with
// the submission's deadline (if any) layered on top — this is the
// per-request deadline the issue promises: it flows into sim.RunContext
// and stops the cycle loop mid-simulation.
func (s *Server) execute(j *job, timeout time.Duration, exec func(context.Context) (any, error)) {
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
	j.notifyLocked()
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
	st := JobStatus{Key: j.key, Kind: j.kind, State: j.state, Submitted: unixNS(j.submitted), Started: unixNS(j.started), Finished: unixNS(j.finished)}
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

// notifyLocked fans the (result-free) status out to subscribers without
// blocking: the channels are buffered beyond the number of lifecycle
// transitions, so a send can only be dropped on a subscriber that has
// already stopped reading.
func (j *job) notifyLocked() {
	st := j.statusLocked(false)
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

// subscribe registers a progress listener for key, returning the
// current status alongside. A nil channel with ok=true means the job is
// already terminal: the snapshot is all there is to stream.
func (s *Server) subscribe(key string) (cur JobStatus, ch chan JobStatus, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[key]
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

// Close aborts outstanding work and closes the runner's metric streams.
func (s *Server) Close() error {
	s.stopJobs()
	return s.r.Close()
}

// ------------------------------------------------------------- handlers

// Handler returns the crispd HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRuns)
	mux.HandleFunc("POST /v1/multi", s.handleMulti)
	mux.HandleFunc("POST /v1/analyses", s.handleAnalyses)
	mux.HandleFunc("POST /v1/footprints", s.handleFootprints)
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
		httpError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return nil, false
	}
	return body, true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
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
		httpError(w, http.StatusInternalServerError, err.Error())
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

// checkBounded rejects specs that would simulate forever: remote
// submissions must carry an instruction budget or a sampling schedule
// (locally, "0 = run to Halt" is usable; the suite's kernels never
// halt, and a server must not accept a job it can never finish).
func checkBounded(spec sim.RunSpec) error {
	if spec.Insts == 0 && spec.Sampling == nil {
		return fmt.Errorf("unbounded spec %q: a remote run needs insts > 0 or a sampling schedule", spec.Workload)
	}
	return nil
}

// validateRun is the full submission gate for one RunSpec.
func validateRun(spec sim.RunSpec) error {
	if err := runner.ValidateWorkloads([]string{spec.Workload}); err != nil {
		return err
	}
	return checkBounded(spec)
}

func validateMulti(spec sim.MultiSpec) error {
	for i, cs := range spec.Cores {
		if err := runner.ValidateWorkloads([]string{cs.Workload}); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
		// A spec-level sampling schedule bounds every core (the per-core
		// budget is Sampling.Total(); Validate enforces that clauses then
		// carry no Insts of their own), so only full-detail specs need a
		// per-clause budget.
		if spec.Sampling != nil {
			continue
		}
		if err := checkBounded(cs); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

func (s *Server) handleRuns(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	spec, err := sim.DecodeRunSpec(body)
	if err == nil {
		err = validateRun(spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.finishSubmit(w, req, runner.KindRun, spec.Key(),
		func(ctx context.Context) (any, error) { return s.r.Run(ctx, spec) })
}

func (s *Server) handleMulti(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	spec, err := sim.DecodeMultiSpec(body)
	if err == nil {
		err = validateMulti(spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.finishSubmit(w, req, runner.KindMulti, spec.Key(),
		func(ctx context.Context) (any, error) { return s.r.RunMulti(ctx, spec) })
}

// decodeAnalysisSpec strictly decodes the pipeline spec shared by the
// analyses and footprints endpoints.
func decodeAnalysisSpec(body []byte) (runner.AnalysisSpec, error) {
	var spec runner.AnalysisSpec
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decode AnalysisSpec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, runner.ValidateWorkloads([]string{spec.Workload})
}

func (s *Server) handleAnalyses(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	spec, err := decodeAnalysisSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.finishSubmit(w, req, runner.KindAnalysis, spec.Key(),
		func(ctx context.Context) (any, error) { return s.r.Analysis(ctx, spec) })
}

func (s *Server) handleFootprints(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	spec, err := decodeAnalysisSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.finishSubmit(w, req, runner.KindFootprint, spec.Key(),
		func(ctx context.Context) (any, error) { return s.r.Footprint(ctx, spec) })
}

// finishSubmit is the shared submission tail: store fast path, queue
// admission, optional synchronous wait, status response.
func (s *Server) finishSubmit(w http.ResponseWriter, req *http.Request, kind, key string, exec func(context.Context) (any, error)) {
	timeout, err := parseTimeout(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Dedup against the store before any work starts: a result another
	// process (or a previous life of this server) already published is
	// served without costing a queue slot.
	if raw, ok := s.storeResult(kind, key); ok {
		writeStatus(w, http.StatusOK, JobStatus{Key: key, Kind: kind, State: StateDone, Result: raw})
		return
	}
	j, err := s.submit(kind, key, timeout, exec)
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
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

func (s *Server) handleSweeps(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	var sr SweepRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode sweep: %v", err))
		return
	}
	var timeout time.Duration
	if sr.Timeout != "" {
		var err error
		if timeout, err = time.ParseDuration(sr.Timeout); err != nil || timeout < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad sweep timeout %q", sr.Timeout))
			return
		}
	}

	type item struct {
		kind, key string
		exec      func(context.Context) (any, error)
		stored    bool
	}
	items := make([]item, 0, len(sr.Runs)+len(sr.Multis))
	for i, spec := range sr.Runs {
		err := spec.Validate()
		if err == nil {
			err = validateRun(spec)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("runs[%d]: %v", i, err))
			return
		}
		spec := spec
		items = append(items, item{kind: runner.KindRun, key: spec.Key(),
			exec: func(ctx context.Context) (any, error) { return s.r.Run(ctx, spec) }})
	}
	for i, spec := range sr.Multis {
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("multis[%d]: %v", i, err))
			return
		}
		if err := validateMulti(spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("multis[%d]: %v", i, err))
			return
		}
		spec := spec
		items = append(items, item{kind: runner.KindMulti, key: spec.Key(),
			exec: func(ctx context.Context) (any, error) { return s.r.RunMulti(ctx, spec) }})
	}

	// Store pass outside the lock: published results cost no queue slot.
	// The same validated lookup as a single submission, not Store.Has: a
	// torn entry reported "done" here could never be fetched (the status
	// poll deletes it and answers 404), so it is a miss and is submitted.
	for i := range items {
		_, items[i].stored = s.storeResult(items[i].kind, items[i].key)
	}

	// Admission and submission are one atomic step: either the whole
	// batch fits the queue or none of it starts (a half-admitted sweep
	// would deadlock clients that wait for all their keys).
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	fresh := 0
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		if it.stored || seen[it.key] {
			continue
		}
		seen[it.key] = true
		if j, ok := s.jobs[it.key]; !ok || j.state == StateFailed {
			fresh++
		}
	}
	if s.active+fresh > s.queueLimit {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, fmt.Sprintf("%s: %d new jobs over limit %d", errBusy, fresh, s.queueLimit))
		return
	}
	resp := SweepResponse{Jobs: make([]JobStatus, 0, len(items))}
	for _, it := range items {
		if it.stored {
			resp.Jobs = append(resp.Jobs, JobStatus{Key: it.key, Kind: it.kind, State: StateDone})
			continue
		}
		j, err := s.submitLocked(it.kind, it.key, timeout, it.exec)
		if err != nil { // capacity was pre-checked; only draining can race here
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, err.Error())
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
	j := s.jobs[key]
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
	httpError(w, http.StatusNotFound, "unknown job key "+key)
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
		httpError(w, http.StatusNotFound, "unknown job key "+key)
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
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// ------------------------------------------------------- store plumbing

// storeResult returns the wire bytes of the result published under
// (kind, key). The first touch of an entry is loadResult — the only way
// bytes enter — and its output is kept in s.published; every later
// request for the key is answered from memory with no file read, decode
// or marshal. That is sound because a store entry is content-addressed
// (the key hashes the spec and sim.CodeVersion) and never rewritten with
// different content: the validated copy cannot go stale, only cold.
func (s *Server) storeResult(kind, key string) (json.RawMessage, bool) {
	st := s.r.Store()
	if !st.Enabled() {
		return nil, false
	}
	if raw, ok := s.published.get(kind, key); ok {
		return raw, true
	}
	var raw json.RawMessage
	var ok bool
	switch kind {
	case runner.KindRun:
		raw, ok = loadResult[core.Result](st, kind, key)
	case runner.KindMulti:
		raw, ok = loadResult[sim.MultiResult](st, kind, key)
	case runner.KindAnalysis:
		raw, ok = loadResult[crisp.Analysis](st, kind, key)
	case runner.KindFootprint:
		raw, ok = loadResult[crisp.Footprint](st, kind, key)
	}
	if ok {
		s.published.add(kind, key, raw)
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

// storeLookup finds a published entry for key under any job kind (for
// status polls of results from a previous server life).
func (s *Server) storeLookup(key string) (kind string, raw json.RawMessage, ok bool) {
	for _, k := range []string{runner.KindRun, runner.KindMulti, runner.KindAnalysis, runner.KindFootprint} {
		if raw, ok := s.storeResult(k, key); ok {
			return k, raw, true
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
