package crispd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/ibda"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// newTestServer builds a Server plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSpec(t *testing.T, url string, spec any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, rb
}

func readAllBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// fastSpec finishes in well under a second; slowSpec runs long enough
// to be observed mid-flight (and is always cancelled, never awaited).
func fastSpec() sim.RunSpec { return sim.RunSpec{Workload: "pointerchase", Insts: 20_000} }
func slowSpec() sim.RunSpec { return sim.RunSpec{Workload: "pointerchase", Insts: 500_000_000} }

// TestConcurrentDedup: two clients racing the same spec cost one
// simulation; both receive the identical result.
func TestConcurrentDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	spec := fastSpec()

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, rb := postSpec(t, ts.URL+"/v1/runs?wait=1", spec)
			codes[i] = resp.StatusCode
			var st JobStatus
			if err := json.Unmarshal(rb, &st); err != nil {
				t.Errorf("client %d: decode: %v (%s)", i, err, rb)
				return
			}
			if st.State != StateDone {
				t.Errorf("client %d: state %s (error %q), want done", i, st.State, st.Error)
			}
			results[i] = st.Result
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("client %d: HTTP %d, want 200", i, code)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("the two clients decoded different results for one spec")
	}
	if len(results[0]) == 0 {
		t.Fatal("empty result payload")
	}
	if st := s.Runner().Stats(); st.Executed != 1 {
		t.Errorf("Executed = %d, want 1 (dedup before work starts)", st.Executed)
	}
}

// TestDeadlineCancellation: a per-request timeout propagates through
// the job context into sim.RunContext and stops the cycle loop; the
// job lands failed, and resubmitting the failed key without the
// deadline restarts it fresh.
func TestDeadlineCancellation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := sim.RunSpec{Workload: "pointerchase", Insts: 100_000}

	resp, rb := postSpec(t, ts.URL+"/v1/runs?wait=1&timeout=1ns", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}
	var st JobStatus
	if err := json.Unmarshal(rb, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed (deadline must cancel the run)", st.State)
	}
	if !strings.Contains(st.Error, "deadline") && !strings.Contains(st.Error, "cancel") {
		t.Errorf("failure %q does not mention the deadline", st.Error)
	}

	// Failed keys restart on resubmission.
	resp, rb = postSpec(t, ts.URL+"/v1/runs?wait=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d: %s", resp.StatusCode, rb)
	}
	if err := json.Unmarshal(rb, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("resubmitted job state %s (error %q), want done", st.State, st.Error)
	}
}

// TestGracefulDrain: drain waits for in-flight jobs, publishes their
// results, and leaves the store with no .lock or .tmp debris; a
// draining server refuses new work with 503 and fails health checks.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 2, Store: dir})
	spec := fastSpec()

	resp, rb := postSpec(t, ts.URL+"/v1/runs", spec) // async: 202 queued
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight job finished and published.
	if !s.Runner().Store().Get(runner.KindRun, spec.Key(), new(core.Result)) {
		t.Error("drained job did not publish its result to the store")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".lock", ".tmp":
			t.Errorf("drain left debris %s in the store", e.Name())
		}
	}

	// New work is refused (a spec the store does not already answer);
	// health reflects the drain.
	resp, rb = postSpec(t, ts.URL+"/v1/runs", sim.RunSpec{Workload: "pointerchase", Insts: 21_000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: HTTP %d (%s), want 503", resp.StatusCode, rb)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", hresp.StatusCode)
	}
}

// TestStoreFastPath: a result published in a previous server life is
// served as done on submission without costing a simulation or a queue
// slot, and status polls find it too — restart-transparent dedup.
func TestStoreFastPath(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	{
		s1, ts1 := newTestServer(t, Options{Workers: 1, Store: dir})
		if resp, rb := postSpec(t, ts1.URL+"/v1/runs?wait=1", spec); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed run: HTTP %d: %s", resp.StatusCode, rb)
		}
		if err := s1.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: dir})
	resp, rb := postSpec(t, ts2.URL+"/v1/runs?wait=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}
	var st JobStatus
	if err := json.Unmarshal(rb, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || len(st.Result) == 0 {
		t.Fatalf("store-backed submission: state %s, result %d bytes", st.State, len(st.Result))
	}
	if stats := s2.Runner().Stats(); stats.Executed != 0 {
		t.Errorf("Executed = %d, want 0 (the store already had the result)", stats.Executed)
	}

	gresp, err := http.Get(ts2.URL + "/v1/runs/" + spec.Key())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := readAllBody(gresp)
	if err != nil {
		t.Fatal(err)
	}
	if gresp.StatusCode != http.StatusOK {
		t.Errorf("status poll of stored key: HTTP %d: %s", gresp.StatusCode, gb)
	}
}

// TestClientRoundTrip: a run through Client + runner.Options.Remote is
// byte-identical (as JSON) to the same spec simulated locally — the
// acceptance invariant behind pointing figure harnesses at -server.
func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec := fastSpec()

	local, err := runner.New(context.Background(), runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := local.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := runner.New(context.Background(), runner.Options{Workers: 1, Remote: NewClient(ts.URL)})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := remote.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Host-side profiling fields (wall clock, allocations) measure the
	// simulator, not the simulated machine, and differ run to run even
	// locally; everything architectural must match exactly.
	lres.HostNS, lres.HostAllocs, lres.HostIters = 0, 0, 0
	rres.HostNS, rres.HostAllocs, rres.HostIters = 0, 0, 0
	lb, _ := json.Marshal(lres)
	rb, _ := json.Marshal(rres)
	if !bytes.Equal(lb, rb) {
		t.Errorf("remote result differs from local:\nlocal  %.200s\nremote %.200s", lb, rb)
	}
	if st := remote.Stats(); st.RemoteRuns != 1 {
		t.Errorf("RemoteRuns = %d, want 1", st.RemoteRuns)
	}

	// The in-process memo still applies in front of the remote: a second
	// request is free.
	if _, err := remote.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if st := remote.Stats(); st.RemoteRuns != 1 {
		t.Errorf("memoized re-run hit the server: RemoteRuns = %d", st.RemoteRuns)
	}
}

// TestBackpressure: submissions beyond the queue bound get 429 with
// Retry-After, and the Client retries through backpressure to
// completion once slots free up.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	if resp, rb := postSpec(t, ts.URL+"/v1/runs", slowSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d: %s", resp.StatusCode, rb)
	}
	resp, rb := postSpec(t, ts.URL+"/v1/runs", fastSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submission: HTTP %d (%s), want 429", resp.StatusCode, rb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The slow job is cancelled by the test-cleanup Close.
}

// TestClientRetriesBackpressure: the client rides out 429s and finishes
// once the queue drains naturally.
func TestClientRetriesBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 1})
	if resp, rb := postSpec(t, ts.URL+"/v1/runs", fastSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue filler: HTTP %d: %s", resp.StatusCode, rb)
	}
	// The queue is full until the filler finishes (~tens of ms): the
	// client either lands straight in a freed slot or eats a 429 and
	// retries — both must converge to a result.
	res, err := NewClient(ts.URL).Run(context.Background(), sim.RunSpec{Workload: "pointerchase", Insts: 22_000})
	if err != nil {
		t.Fatalf("client through backpressure: %v", err)
	}
	if res == nil || res.Insts != 22_000 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// pollTerminal polls a run job's status until it is done or failed.
func pollTerminal(t *testing.T, url, key string) reply[core.Result] {
	t.Helper()
	c := NewClient(url)
	for {
		rep, err := status[core.Result](context.Background(), c, key)
		if err != nil {
			t.Fatalf("poll %s: %v", key, err)
		}
		if rep.State.terminal() {
			return rep
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweep: a batch with duplicate specs dedups inside the batch and
// across it; polling the returned keys converges to done.
func TestSweep(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	a := fastSpec()
	b := sim.RunSpec{Workload: "pointerchase", Insts: 30_000}
	req := SweepRequest{Runs: []sim.RunSpec{a, b, a}} // a twice

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}
	var sr SweepResponse
	if err := json.Unmarshal(rb, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Jobs) != 3 {
		t.Fatalf("%d job statuses, want 3 (request order)", len(sr.Jobs))
	}
	if sr.Jobs[0].Key != a.Key() || sr.Jobs[1].Key != b.Key() || sr.Jobs[2].Key != a.Key() {
		t.Error("sweep response out of request order")
	}

	for _, key := range []string{a.Key(), b.Key()} {
		if st := pollTerminal(t, ts.URL, key); st.State != StateDone {
			t.Errorf("job %s: state %s (error %q)", key, st.State, st.Error)
		}
	}
	if st := s.Runner().Stats(); st.Executed != 2 {
		t.Errorf("Executed = %d, want 2 (a deduped within the sweep)", st.Executed)
	}
}

// TestEventsStream: the JSONL progress stream replays the current state
// and ends with a terminal event.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := fastSpec()
	if resp, rb := postSpec(t, ts.URL+"/v1/runs", spec); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + spec.Key() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if last.Key != spec.Key() {
			t.Errorf("event for key %s, want %s", last.Key, spec.Key())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != StateDone {
		t.Errorf("stream ended at state %s, want done", last.State)
	}
}

// TestRejects: a body that is not exactly one valid, bounded spec of the
// route's kind is a 400 on every POST route, and starts nothing; unknown
// keys are 404s.
func TestRejects(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	// The cases are written for a run (and read as a pipeline spec too);
	// these two routes take one inside a larger request, so the same defect
	// sits in an otherwise well-formed body of that route.
	wraps := map[string]func(run string) string{
		multiKind.path: func(run string) string { return `{"cores":[` + run + `]}` },
		"/v1/sweeps":   func(run string) string { return `{"runs":[` + run + `]}` },
	}
	routes := []string{"/v1/sweeps"}
	for _, k := range kinds {
		routes = append(routes, k.path)
	}
	cases := []struct {
		name, run string
	}{
		{"not json", `insts=5`},
		{"unknown field", `{"workload":"mcf","insts":1000,"shed":"crisp"}`},
		{"no workload", `{"insts":1000}`},
		{"unknown workload", `{"workload":"quicksort3","insts":1000}`},
		{"unbounded", `{"workload":"mcf"}`},
	}
	post := func(route, name, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s, %s: HTTP %d, want 400 (body %s)", route, name, resp.StatusCode, body)
		}
	}
	const valid = `{"workload":"mcf","insts":2000}`
	for _, route := range routes {
		wrap := wraps[route]
		if wrap == nil {
			wrap = func(run string) string { return run }
		}
		for _, c := range cases {
			post(route, c.name, wrap(c.run))
		}
		// A whole valid request, then more: a second value, a stray word, a
		// stray bracket (which json.Decoder.More does not report).
		for _, tail := range []string{` {"x":1}`, ` garbage`, ` }`, ` ]`} {
			post(route, "trailing"+tail, wrap(valid)+tail)
		}
	}
	if st := s.Runner().Stats(); st.Started != 0 {
		t.Errorf("rejected requests started %d tasks", st.Started)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", resp.StatusCode)
	}

	if resp, rb := postSpec(t, ts.URL+"/v1/runs?timeout=never", fastSpec()); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: HTTP %d (%s), want 400", resp.StatusCode, rb)
	}
}

// TestRejectsNegativeSliceOptions: CRISP options out of range are a 400 on
// both routes that carry them, a pipeline spec and a run's CRISP clause,
// and start no work; a negative MaxSliceInstances used to reach the slicer
// and panic the server. The server keeps serving afterwards.
func TestRejectsNegativeSliceOptions(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	maxInst := crisp.DefaultOptions()
	maxInst.MaxSliceInstances = -1
	slack := crisp.DefaultOptions()
	slack.CriticalPathSlack = -1
	for name, opts := range map[string]crisp.Options{"MaxSliceInstances": maxInst, "CriticalPathSlack": slack} {
		specs := map[string]any{
			"/v1/analyses": runner.AnalysisSpec{Workload: "mcf", Insts: 20_000, Opts: opts},
			"/v1/runs":     sim.RunSpec{Workload: "mcf", Insts: 20_000}.WithCrisp(opts),
		}
		for route, spec := range specs {
			if resp, rb := postSpec(t, ts.URL+route+"?wait=1", spec); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s, negative %s: HTTP %d (%s), want 400", route, name, resp.StatusCode, rb)
			}
		}
	}
	if st := s.Runner().Stats(); st.Started != 0 {
		t.Errorf("rejected requests started %d tasks", st.Started)
	}
	if resp, rb := postSpec(t, ts.URL+"/v1/runs?wait=1", fastSpec()); resp.StatusCode != http.StatusOK {
		t.Errorf("valid run after the rejects: HTTP %d (%s), want 200", resp.StatusCode, rb)
	}
}

// TestStatsz: the counters reflect completed work, and requests answered
// from the store or the published-result cache are counted there, not as
// jobs.
func TestStatsz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Queue: 7, Store: t.TempDir()})
	// Computed (a cache miss, then a job); read back from the store (a
	// miss, cached); served from memory (a hit).
	var result []byte
	for i := 0; i < 3; i++ {
		result = serveResult(t, ts.URL, fastSpec())
	}
	st, err := NewClient(ts.URL).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueLimit != 7 {
		t.Errorf("QueueLimit = %d, want 7", st.QueueLimit)
	}
	if st.Jobs[string(StateDone)] != 1 || len(st.Jobs) != 1 {
		t.Errorf("jobs by state %v, want 1 done and nothing else", st.Jobs)
	}
	if st.Runner.Executed != 1 {
		t.Errorf("runner Executed = %d, want 1", st.Runner.Executed)
	}
	if st.Draining || st.QueueDepth != 0 {
		t.Errorf("unexpected statsz %+v", st)
	}
	if want := (ResultCacheStats{Hits: 1, Misses: 2, Bytes: int64(len(result))}); st.ResultCache != want {
		t.Errorf("result_cache %+v, want %+v", st.ResultCache, want)
	}

	// The field names are the scraping surface.
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		ResultCache map[string]int64 `json:"result_cache"`
	}
	if err := json.Unmarshal(rb, &wire); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"hits", "misses", "bytes", "evictions"} {
		if _, ok := wire.ResultCache[field]; !ok {
			t.Errorf("statsz result_cache has no %q field: %s", field, rb)
		}
	}
}

// TestSharedSimulations is runner.TestSharedSimulations through a server:
// a client's runner delegates the two pairs of mcf specs with one SimKey
// each (same-tag CRISP options, IBDA at 1K and ∞) at once; the server
// simulates once per pair, statsz says so, both keys of each pair are in
// its store, and a server restarted on the store executes nothing.
func TestSharedSimulations(t *testing.T) {
	ctx := context.Background()
	base := sim.RunSpec{Workload: "mcf", Insts: 40_000}
	loadOnly := crisp.DefaultOptions()
	loadOnly.BranchSlices = false
	specs := []sim.RunSpec{
		base.WithCrisp(crisp.DefaultOptions()), base.WithCrisp(loadOnly),
		base.WithIBDA(ibda.DefaultConfig()), base.WithIBDA(ibda.Config{DLTEntries: 32}),
	}
	dir := t.TempDir()
	runAll := func(url string) {
		r, err := runner.New(ctx, runner.Options{Workers: 4, Remote: NewClient(url)})
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]*runner.RunHandle, len(specs))
		for i, s := range specs {
			hs[i] = r.Submit(s)
		}
		for _, h := range hs {
			if _, err := h.Result(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	s1, ts1 := newTestServer(t, Options{Workers: 4, Store: dir})
	runAll(ts1.URL)
	st, err := NewClient(ts1.URL).Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The two analyses' train profile, and the four specs.
	if st.Runner.Executed != 5 || st.Runner.Shared != 2 {
		t.Errorf("statsz: Executed %d, Shared %d; want 5 and 2", st.Runner.Executed, st.Runner.Shared)
	}
	for _, s := range specs {
		if !s1.Runner().Store().Get(runner.KindRun, s.Key(), &core.Result{}) {
			t.Errorf("%s: nothing stored under its key", s.Key())
		}
	}
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 4, Store: dir})
	runAll(ts2.URL)
	if st := s2.Runner().Stats(); st.Executed != 0 || st.Shared != 0 {
		t.Errorf("restarted on the store: Executed %d, Shared %d; want 0 and 0", st.Executed, st.Shared)
	}
}

// TestKindTable walks the kind table: each row's route takes the row's
// spec and answers with the row's kind — 202 or 200 at once, 200 and the
// result when waited for; after a restart over the same store the entry is
// served with nothing executed, and a status poll of the key finds it. The
// analysis and footprint rows post one spec, so one content key: a job is
// its kind and its key.
func TestKindTable(t *testing.T) {
	pipe := runner.AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()}
	specs := map[*kind]any{
		runKind: fastSpec(),
		multiKind: sim.MultiSpec{Cores: []sim.RunSpec{
			{Workload: "pointerchase", Insts: 20_000},
			{Workload: "streambatch", Insts: 20_000},
		}},
		analysisKind:  pipe,
		footprintKind: pipe,
	}
	// decoded checks that a result is the row's result type, filled in.
	decoded := map[*kind]func(raw json.RawMessage) bool{
		runKind: func(raw json.RawMessage) bool {
			var res core.Result
			return json.Unmarshal(raw, &res) == nil && res.Insts == 20_000
		},
		multiKind: func(raw json.RawMessage) bool {
			var res sim.MultiResult
			return json.Unmarshal(raw, &res) == nil && len(res.Cores) == 2
		},
		analysisKind: func(raw json.RawMessage) bool {
			var res crisp.Analysis
			return json.Unmarshal(raw, &res) == nil && len(res.CriticalPCs) > 0
		},
		footprintKind: func(raw json.RawMessage) bool {
			var res crisp.Footprint
			return json.Unmarshal(raw, &res) == nil && res.StaticBytesBase > 0
		},
	}
	if len(specs) != len(kinds) {
		t.Fatalf("%d specs for %d rows", len(specs), len(kinds))
	}
	submit := func(t *testing.T, url string, k *kind) (int, JobStatus) {
		t.Helper()
		resp, rb := postSpec(t, url, specs[k])
		var st JobStatus
		if err := json.Unmarshal(rb, &st); err != nil {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
		}
		if st.Kind != k.name {
			t.Errorf("%s: kind %q, want %q", url, st.Kind, k.name)
		}
		return resp.StatusCode, st
	}

	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{Workers: 2, Store: dir})
	keys := map[*kind]string{}
	for _, k := range kinds {
		if code, _ := submit(t, ts1.URL+k.path, k); code != http.StatusAccepted && code != http.StatusOK {
			t.Errorf("%s: HTTP %d, want 202 or 200", k.path, code)
		}
		code, st := submit(t, ts1.URL+k.path+"?wait=1", k)
		if code != http.StatusOK || st.State != StateDone || !decoded[k](st.Result) {
			t.Errorf("%s?wait=1: HTTP %d, state %s (error %q), result %.60s", k.path, code, st.State, st.Error, st.Result)
		}
		keys[k] = st.Key
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 2, Store: dir})
	for _, k := range kinds {
		code, st := submit(t, ts2.URL+k.path, k)
		if code != http.StatusOK || st.State != StateDone || st.Key != keys[k] || !decoded[k](st.Result) {
			t.Errorf("%s after the restart: HTTP %d, state %s, key %s, result %.60s", k.path, code, st.State, st.Key, st.Result)
		}
		resp, err := http.Get(ts2.URL + "/v1/runs/" + keys[k])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := readAllBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		var got JobStatus
		if err := json.Unmarshal(rb, &got); err != nil || resp.StatusCode != http.StatusOK || got.State != StateDone {
			t.Errorf("GET /v1/runs/%s: HTTP %d: %.80s", keys[k], resp.StatusCode, rb)
		}
	}
	if st := s2.Runner().Stats(); st.Started != 0 {
		t.Errorf("the restarted server started %d tasks for entries the store holds", st.Started)
	}
}

// TestForcedDrain: when the drain deadline has already passed, Drain
// cancels in-flight jobs and still returns with the store clean.
func TestForcedDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, Store: dir})
	if resp, rb := postSpec(t, ts.URL+"/v1/runs", slowSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("forced drain reported clean exit for a cancelled job")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".lock", ".tmp":
			t.Errorf("forced drain left debris %s in the store", e.Name())
		}
	}
}

// TestClientAgainstFailure verifies the client surfaces server-side
// job failures as errors with the server's message.
func TestClientAgainstFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	c := NewClient(ts.URL)
	_, err := c.Run(context.Background(), sim.RunSpec{Workload: "nosuchworkload", Insts: 1000})
	if err == nil {
		t.Fatal("client accepted an unknown workload")
	}
	if !strings.Contains(err.Error(), "nosuchworkload") {
		t.Errorf("error %q does not name the workload", err)
	}
}
