package crispd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// Tests of the encode-once serving path: the spliced envelope, the job
// table's byte budget and the one-pass client.

// TestWriteStatusMatchesWriteJSON pins the spliced envelope to the
// encoder it replaced: for every result kind, with and without
// timestamps and Error, writeStatus emits exactly the bytes
// writeJSON(JobStatus{…, Result: raw}) does.
func TestWriteStatusMatchesWriteJSON(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	aspec := runner.AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()}
	run, err := s.Runner().Run(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := s.Runner().RunMulti(ctx, sim.MultiSpec{Cores: []sim.RunSpec{fastSpec(), {Workload: "streambatch", Insts: 20_000}}})
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := s.Runner().Analysis(ctx, aspec)
	if err != nil {
		t.Fatal(err)
	}
	footprint, err := s.Runner().Footprint(ctx, aspec)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]any{
		runner.KindRun: run, runner.KindMulti: multi, runner.KindAnalysis: analysis, runner.KindFootprint: footprint,
		"html": map[string]string{"a<b>&c": " </script>"}, // what the encoder would escape is escaped already
	}
	for kind, v := range results {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]JobStatus{
			"store hit":  {Key: "k", Kind: kind, State: StateDone, Result: raw},
			"timestamps": {Key: "k", Kind: kind, State: StateDone, Submitted: 1, Started: 22, Finished: 333, Result: raw},
			"error":      {Key: "k", Kind: kind, State: StateDone, Error: `a "quoted" <failure> & more`, Finished: 5, Result: raw},
			"no result":  {Key: "k", Kind: kind, State: StateFailed, Error: "boom", Submitted: 1},
		} {
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			writeJSON(want, http.StatusOK, st)
			writeStatus(got, http.StatusOK, st)
			if !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
				t.Errorf("%s/%s: writeStatus body differs from writeJSON:\nwant %.300s\ngot  %.300s", kind, name, want.Body, got.Body)
			}
			if want.Code != got.Code || want.Header().Get("Content-Type") != got.Header().Get("Content-Type") {
				t.Errorf("%s/%s: status line or content type differs", kind, name)
			}
			// The spliced body goes out with its length, so the client can
			// read it into a buffer of that size.
			if cl := got.Header().Get("Content-Length"); len(st.Result) > 0 && cl != strconv.Itoa(got.Body.Len()) {
				t.Errorf("%s/%s: Content-Length %q for a %d-byte body", kind, name, cl, got.Body.Len())
			}
		}
	}
}

// publish stores a fabricated result for spec, as a previous server life
// or a sibling process would have, and returns its wire bytes.
func publish(t *testing.T, s *Server, spec sim.RunSpec, cycles uint64) []byte {
	t.Helper()
	res := &core.Result{Cycles: cycles, Insts: spec.Insts, UPCWindows: []float64{1.5, 0.25}}
	if err := s.Runner().Store().Put(runner.KindRun, spec.Key(), res); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// cacheStats reads the table's counters, as statsz reports them.
func cacheStats(s *Server) ResultCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}

// serveResult submits spec with ?wait=1 and returns the done status's
// result bytes.
func serveResult(t *testing.T, url string, spec sim.RunSpec) []byte {
	t.Helper()
	resp, rb := postSpec(t, url+"/v1/runs?wait=1", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, rb)
	}
	var st JobStatus
	if err := json.Unmarshal(rb, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s (error %q), want done", st.State, st.Error)
	}
	return st.Result
}

// TestResultCacheLRU: the job table holds published results up to its
// byte budget, evicts the least recently served, never keeps an entry
// larger than the budget, and an evicted key is served from the store
// again — none of which costs a simulation or counts as a job.
func TestResultCacheLRU(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Store: t.TempDir()})
	specs := []sim.RunSpec{
		{Workload: "pointerchase", Insts: 20_000},
		{Workload: "pointerchase", Insts: 21_000},
		{Workload: "pointerchase", Insts: 22_000},
	}
	var raws [][]byte
	for i, spec := range specs {
		raws = append(raws, publish(t, s, spec, uint64(1000+i)))
	}
	size := int64(len(raws[0]))
	for _, raw := range raws {
		if int64(len(raw)) != size {
			t.Fatalf("fabricated results differ in size: %d vs %d", len(raw), size)
		}
	}
	s.budget = 2 * size // room for two
	serve := func(i int) {
		t.Helper()
		if got := serveResult(t, ts.URL, specs[i]); !bytes.Equal(got, raws[i]) {
			t.Errorf("spec %d: served %s, want %s", i, got, raws[i])
		}
	}
	wantStats := func(want ResultCacheStats) {
		t.Helper()
		if got := cacheStats(s); got != want {
			t.Errorf("result cache %+v, want %+v", got, want)
		}
	}

	serve(0)
	serve(1)
	wantStats(ResultCacheStats{Misses: 2, Bytes: 2 * size})
	serve(0) // 1 is now the least recently served
	wantStats(ResultCacheStats{Hits: 1, Misses: 2, Bytes: 2 * size})
	serve(2) // evicts 1
	wantStats(ResultCacheStats{Hits: 1, Misses: 3, Bytes: 2 * size, Evictions: 1})
	serve(0) // still cached
	wantStats(ResultCacheStats{Hits: 2, Misses: 3, Bytes: 2 * size, Evictions: 1})
	serve(1) // back from the store, evicting 2
	wantStats(ResultCacheStats{Hits: 2, Misses: 4, Bytes: 2 * size, Evictions: 2})

	// The status poll goes through the same lookup.
	resp, err := http.Get(ts.URL + "/v1/runs/" + specs[1].Key())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAllBody(resp); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status poll of a cached key: HTTP %d, %v", resp.StatusCode, err)
	}
	wantStats(ResultCacheStats{Hits: 3, Misses: 4, Bytes: 2 * size, Evictions: 2})

	// An entry above the whole budget is served but not kept, and does
	// not flush what is cached to make room it cannot use.
	s.budget = size - 1
	big := sim.RunSpec{Workload: "pointerchase", Insts: 23_000}
	bigRaw := publish(t, s, big, 1003)
	for i := 0; i < 2; i++ {
		if got := serveResult(t, ts.URL, big); !bytes.Equal(got, bigRaw) {
			t.Errorf("over-budget entry: served %s, want %s", got, bigRaw)
		}
	}
	wantStats(ResultCacheStats{Hits: 3, Misses: 6, Bytes: 2 * size, Evictions: 2})

	z, err := NewClient(ts.URL).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if z.Runner.Executed != 0 || len(z.Jobs) != 0 {
		t.Errorf("store hits cost work: Executed %d, jobs %v", z.Runner.Executed, z.Jobs)
	}
}

// TestJobTableBudget: crispd keeps one table, and a done job's bytes are
// its published result under the table's byte budget. A store-backed
// server with room for two computes three specs: the least recently served
// job leaves the table, and its key is served again from the store with
// nothing recomputed. A storeless server keeps all three, because the job
// is the only copy, and a failed entry never leaves.
func TestJobTableBudget(t *testing.T) {
	specs := []sim.RunSpec{
		{Workload: "pointerchase", Insts: 20_000},
		{Workload: "pointerchase", Insts: 21_000},
		{Workload: "pointerchase", Insts: 22_000},
	}
	// compute fails one run on its deadline, then computes the specs with
	// room for two of their results, and returns what it served.
	compute := func(t *testing.T, s *Server, url string) [][]byte {
		t.Helper()
		resp, rb := postSpec(t, url+"/v1/runs?wait=1&timeout=1ns", sim.RunSpec{Workload: "pointerchase", Insts: 100_000})
		var st JobStatus
		if err := json.Unmarshal(rb, &st); err != nil || st.State != StateFailed {
			t.Fatalf("deadline run: HTTP %d: %s", resp.StatusCode, rb)
		}
		var raws [][]byte
		for i, spec := range specs {
			raws = append(raws, serveResult(t, url, spec))
			if i == 0 { // the results differ in size by a few bytes at most
				s.mu.Lock()
				s.budget = 5 * int64(len(raws[0])) / 2
				s.mu.Unlock()
			}
		}
		return raws
	}
	statsz := func(t *testing.T, url string) Statsz {
		t.Helper()
		z, err := NewClient(url).Statsz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return z
	}

	t.Run("store", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1, Store: t.TempDir()})
		raws := compute(t, s, ts.URL)
		z := statsz(t, ts.URL)
		if z.Jobs[string(StateDone)] > 2 || z.ResultCache.Evictions < 1 {
			t.Errorf("jobs %v, result_cache %+v: want at most 2 done jobs kept and an eviction", z.Jobs, z.ResultCache)
		}
		if z.Jobs[string(StateFailed)] != 1 {
			t.Errorf("jobs %v: the failed entry left the table", z.Jobs)
		}
		executed, misses := z.Runner.Executed, z.ResultCache.Misses

		// specs[0] was served least recently: its status poll reads it back
		// from the store, and its resubmission is then served from memory.
		resp, err := http.Get(ts.URL + "/v1/runs/" + specs[0].Key())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := readAllBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.Unmarshal(rb, &st); err != nil || st.State != StateDone || !bytes.Equal(st.Result, raws[0]) {
			t.Errorf("status poll of the evicted key: HTTP %d: %.200s", resp.StatusCode, rb)
		}
		if got := serveResult(t, ts.URL, specs[0]); !bytes.Equal(got, raws[0]) {
			t.Errorf("resubmission of the evicted key served %.200s, want %.200s", got, raws[0])
		}
		z = statsz(t, ts.URL)
		if z.ResultCache.Misses != misses+1 {
			t.Errorf("result_cache misses %d -> %d, want one store read", misses, z.ResultCache.Misses)
		}
		if z.Runner.Executed != executed || z.Jobs[string(StateFailed)] != 1 {
			t.Errorf("Executed %d -> %d, jobs %v: want nothing recomputed and the failed entry kept", executed, z.Runner.Executed, z.Jobs)
		}
	})

	t.Run("storeless", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1})
		raws := compute(t, s, ts.URL)
		z := statsz(t, ts.URL)
		held := int64(len(raws[0]) + len(raws[1]) + len(raws[2]))
		if z.Jobs[string(StateDone)] != 3 || z.Jobs[string(StateFailed)] != 1 || z.ResultCache.Evictions != 0 || z.ResultCache.Bytes != held {
			t.Errorf("jobs %v, result_cache %+v: want all 3 done jobs (%d bytes) and the failed one kept", z.Jobs, z.ResultCache, held)
		}
		for i, spec := range specs {
			if got := serveResult(t, ts.URL, spec); !bytes.Equal(got, raws[i]) {
				t.Errorf("spec %d: resubmission served different bytes", i)
			}
		}
	})
}

// TestResultCacheConcurrent: 8 goroutines hammer 4 published keys through
// a cache with room for 2, so hits, first touches and evictions of one
// key interleave; every response is the key's own result. Run with -race.
func TestResultCacheConcurrent(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Store: t.TempDir()})
	var specs []sim.RunSpec
	var raws [][]byte
	for i := 0; i < 4; i++ {
		spec := sim.RunSpec{Workload: "pointerchase", Insts: uint64(20_000 + 1000*i)}
		specs = append(specs, spec)
		raws = append(raws, publish(t, s, spec, uint64(1000+i)))
	}
	s.budget = 2 * int64(len(raws[0]))
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n*(g%3+1)) % len(specs)
				rec := httptest.NewRecorder()
				if n%2 == 0 {
					body, _ := json.Marshal(specs[i])
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
				} else {
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+specs[i].Key(), nil))
				}
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: HTTP %d, %v", g, rec.Code, err)
					return
				}
				if st.Key != specs[i].Key() || !bytes.Equal(st.Result, raws[i]) {
					t.Errorf("goroutine %d: key %s served %s, want %s", g, st.Key, st.Result, raws[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := cacheStats(s)
	if st.Bytes > s.budget || st.Hits+st.Misses != 8*200 || st.Evictions == 0 {
		t.Errorf("result cache %+v after 1600 lookups under budget %d", st, s.budget)
	}
	if ex := s.Runner().Stats().Executed; ex != 0 {
		t.Errorf("Executed = %d, want 0", ex)
	}
}

// tornResult is the head of a result, as a crash between write and fsync
// would leave without the atomic rename, or a disk error would leave with
// it. oldShapeResult is a whole result in the encoding used up to
// crisp-sim-5: Hist, LoadProf and BranchProf as keyed objects, not rows.
const (
	tornResult     = `{"Cycles":12,"Insts":`
	oldShapeResult = `{"Cycles":12,"Insts":7,` +
		`"Hists":{"load_lat":{"counts":[0,0,0,7,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":28}},` +
		`"Loads":{"3":{"Count":7,"L1Miss":0,"LLCMiss":0,"TotalLat":28,"MLPSum":0,"HeadStall":0,"Forwards":0,` +
		`"LatHist":{"counts":[0,0,0,7,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum":28}}},` +
		`"Branches":{"5":{"Count":1,"Mispred":0,"Taken":1}}}`
)

// corruptEntry plants body as the store entry for spec.
func corruptEntry(t *testing.T, dir string, spec sim.RunSpec, body string) string {
	t.Helper()
	path := filepath.Join(dir, runner.KindRun+"-"+spec.Key()+".json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkRecomputed asserts the corrupt entry at path was replaced by a
// decodable result of one simulation.
func checkRecomputed(t *testing.T, s *Server, path string, spec sim.RunSpec) {
	t.Helper()
	if ex := s.Runner().Stats().Executed; ex != 1 {
		t.Errorf("Executed = %d, want 1 (the corrupt entry is recomputed, once)", ex)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("entry not rewritten: %v", err)
	}
	var res core.Result
	if err := json.Unmarshal(b, &res); err != nil || res.Insts != spec.Insts {
		t.Errorf("rewritten entry: %v, Insts %d (want %d)", err, res.Insts, spec.Insts)
	}
}

// TestCorruptEntryFirstTouch: the first touch of a corrupt entry deletes
// it and recomputes — the table sits behind the validating load, never in
// front of it — and the recomputed job's bytes then serve the key.
func TestCorruptEntryFirstTouch(t *testing.T) { firstTouch(t, tornResult) }

// TestOldShapeEntryFirstTouch: an entry in the pre-row encoding under a
// current key is such a corrupt entry — loadResult never canonicalises it
// into a half-filled result, the bytes served are a fresh simulation's.
func TestOldShapeEntryFirstTouch(t *testing.T) { firstTouch(t, oldShapeResult) }

func firstTouch(t *testing.T, entry string) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, Store: dir})
	spec := fastSpec()
	path := corruptEntry(t, dir, spec, entry)

	first := serveResult(t, ts.URL, spec)
	checkRecomputed(t, s, path, spec)
	for i := 0; i < 2; i++ {
		if again := serveResult(t, ts.URL, spec); !bytes.Equal(first, again) {
			t.Errorf("resubmission %d served different bytes", i)
		}
	}
	if st := cacheStats(s); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("result cache %+v, want 2 hits after 1 miss (the corrupt entry; the recomputed job's bytes serve the rest)", st)
	}
	if ex := s.Runner().Stats().Executed; ex != 1 {
		t.Errorf("Executed = %d after resubmissions, want 1", ex)
	}
}

// TestClientReplies: what the client makes of each reply shape, over a
// scripted server. The typed reply decodes in one pass, so these are the
// cases the envelope-then-result decode used to tell apart.
func TestClientReplies(t *testing.T) {
	const done = `{"key":"k1","kind":"run","state":"done","result":{"Cycles":12,"Insts":7}}`
	escaped, err := json.Marshal(JobStatus{Key: "k1", Kind: "run", State: StateFailed, Error: `a "quoted" <failure> & ü`})
	if err != nil || !bytes.Contains(escaped, []byte(`\"quoted\"`)) {
		t.Fatalf("%s, %v: want the escapes the server writes", escaped, err)
	}
	cases := []struct {
		name     string
		post     string // body of POST /v1/runs
		accepted bool   // the POST reply is a 202
		wantErr  string // "" = a result with Cycles 12
		chunked  bool   // the POST reply states no Content-Length
		lie      int    // the POST reply states a Content-Length this far from the truth
	}{
		{name: "done", post: done},
		// The client sizes its buffer from Content-Length; what it reads is
		// still the body, whatever the header said.
		{name: "done, no Content-Length", post: done, chunked: true},
		{name: "Content-Length understates", post: done, lie: -9, wantErr: "decode job status"},
		{name: "Content-Length overstates", post: done, lie: 100, wantErr: "read response"},
		{name: "done without result", post: `{"key":"k1","kind":"run","state":"done"}`, wantErr: "k1"},
		// Decoded as the zero result before the one-pass client; the server
		// never sends it, and a result that silently reads as zeros is worse
		// than an error.
		{name: "null result", post: `{"key":"k1","kind":"run","state":"done","result":null}`, wantErr: "k1"},
		{name: "truncated body", post: done[:len(done)-9], wantErr: "decode job status"},
		{name: "mistyped result", post: `{"key":"k1","kind":"run","state":"done","result":{"Cycles":"x"}}`, wantErr: "Cycles"},
		// A server of another CodeVersion cannot answer under this key, but
		// a result in its shape must still be an error, not zeroed profiles.
		{name: "old-shape result", post: `{"key":"k1","kind":"run","state":"done","result":` + oldShapeResult + `}`, wantErr: "decode job status"},
		{name: "failed", post: `{"key":"k1","kind":"run","state":"failed","error":"boom"}`, wantErr: "job k1 failed: boom"},
		// The server's encoder escapes quotes and HTML characters; the
		// error reads as the server wrote it.
		{name: "escaped error", post: string(escaped), wantErr: `job k1 failed: a "quoted" <failure> & ü`},
		{name: "trailing garbage", post: done + `{}`, wantErr: "decode job status"},
		// A waited submission is answered once its job is terminal. The
		// client used to poll the kind-blind status route on anything else,
		// which can answer with another kind's result under the same key.
		{name: "202 then poll", post: `{"key":"k1","kind":"run","state":"running"}`, accepted: true, wantErr: `job k1 answered "running"`},
		{name: "202 then failed poll", post: `{"key":"k1","kind":"run","state":"queued"}`, accepted: true, wantErr: `job k1 answered "queued"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var polls atomic.Int32
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
				body := tc.post + "\n"
				if tc.lie != 0 {
					w.Header().Set("Content-Length", strconv.Itoa(len(body)+tc.lie))
				}
				if tc.accepted {
					w.WriteHeader(http.StatusAccepted)
				}
				if tc.chunked {
					w.(http.Flusher).Flush()
				}
				split := len(body) + min(tc.lie, 0)
				io.WriteString(w, body[:split]) //nolint:errcheck // client gone = nothing to do
				io.WriteString(w, body[split:]) //nolint:errcheck // past an understated length: refused, as meant
			})
			mux.HandleFunc("GET /v1/runs/k1", func(w http.ResponseWriter, r *http.Request) {
				polls.Add(1)
				fmt.Fprintln(w, done)
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			res, err := NewClient(ts.URL).Run(context.Background(), sim.RunSpec{Workload: "mcf", Insts: 7})
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || res != nil {
					t.Errorf("result %v, error %v; want no result and an error naming %q", res, err, tc.wantErr)
				}
			case err != nil || res == nil || res.Cycles != 12 || res.Insts != 7:
				t.Errorf("result %+v, error %v; want Cycles 12, Insts 7", res, err)
			}
			if got := polls.Load(); got != 0 {
				t.Errorf("%d status polls, want 0", got)
			}
		})
	}
}

// FuzzReply feeds arbitrary bytes to the client's reply decoder. It must
// never panic, must allocate at most a constant per input byte, and a
// reply it accepts must be the value the parent's decoder — one
// json.Unmarshal into the reply type — reads. The result inside is
// decoded by core.Result's own decoder on both sides; FuzzResultJSON in
// internal/runner holds that one to the parent's reflect-driven decode.
func FuzzReply(f *testing.F) {
	lp := core.LoadProf{Count: 9, L1Miss: 4, LLCMiss: 3, TotalLat: 700}
	lp.LatHist.Observe(700)
	res, err := json.Marshal(&core.Result{Cycles: 12, Insts: 7, DRAMAvgLat: 1.25, UPCWindows: []float64{0.5},
		Loads: map[int]*core.LoadProf{3: &lp}, Branches: map[int]*core.BranchProf{-5: {Count: 2, Taken: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(JobStatus{Key: "k1", Kind: "run", State: StateDone,
		Error: `"<&>" ü`, Submitted: 1, Started: 22, Finished: 333, Result: res}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, body := range []string{
		`{"key":"k1","kind":"run","state":"done","result":{"Cycles":12,"Insts":7}}`,
		`{"key":"k1","kind":"run","state":"done","result":null,"result":{"Cycles":1}}`,
		`{"key":"k1","kind":"run","state":"done","result":{"Cycles":1},"result":{"Insts":2}}`,
		`{"key":"k1","kind":"run","state":"done","result":{"Cycles":"x"}}`,
		`{"key":"k1","kind":"run","state":"done","result":` + oldShapeResult + `}`,
		`{"key":"k1","state":"failed","error":"boom","submitted_unix_ns":-1}` + "\n",
		`{"KEY":"k1","result":{}} `,
	} {
		f.Add([]byte(body))
	}

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, body []byte) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		rep, err := decodeReply[core.Result](body)
		runtime.ReadMemStats(&ms)
		// FuzzResultJSON's budget for the result; the envelope's strings
		// cost at most their own length.
		if got, budget := ms.TotalAlloc-before, uint64(64*len(body)+64<<10); got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(body), got, budget)
		}
		if err != nil {
			return
		}
		var want reply[core.Result]
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal rejects: %v", body, err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("accepted %q as %+v, json.Unmarshal reads %+v", body, rep, want)
		}
	})
}

// TestReadReply: the reply buffer starts at the stated length when there
// is a believable one, and the bytes returned are the body's either way —
// a transport is free to hand over a response whose ContentLength is
// unknown, zero, too small, too large or absurd.
func TestReadReply(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 500)
	for _, stated := range []int64{-1, 0, 1, int64(len(body)) - 1, int64(len(body)), int64(len(body)) + 1, 1 << 20, maxResultBytes + 1, 1 << 62} {
		resp := &http.Response{ContentLength: stated, Body: io.NopCloser(bytes.NewReader(body))}
		got, err := readReply(resp)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("ContentLength %d: read %d bytes, error %v; want the %d-byte body", stated, len(got), err, len(body))
		}
		if stated > maxResultBytes && cap(got) > 4*len(body) {
			t.Errorf("ContentLength %d: an unbelievable length sized a %d-byte buffer", stated, cap(got))
		}
	}
	// A believed length buys the buffer in one allocation; without one it
	// grows by doubling from 512 B.
	allocs := func(stated int64) float64 {
		resp := &http.Response{ContentLength: stated}
		return testing.AllocsPerRun(20, func() {
			resp.Body = io.NopCloser(bytes.NewReader(body))
			readReply(resp) //nolint:errcheck // checked above
		})
	}
	if with, without := allocs(int64(len(body))), allocs(-1); with+2 > without {
		t.Errorf("reading a 5 kB body allocates %v times with its length stated, %v without; want the growth saved", with, without)
	}
}

// Tests of the kind on every route, and of admission.

// getStatus GETs a status route and decodes the reply when it is a 200.
func getStatus(t *testing.T, url string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, &st); err != nil {
			t.Fatalf("GET %s: %v: %.200s", url, err, rb)
		}
	}
	return resp.StatusCode, st
}

// TestKindRoutes: a job is its kind and its key on every route. An
// analysis and a footprint of one AnalysisSpec share a content key; each
// row's status route answers with the row's own result, both live and
// after a restart over the store. The other rows' routes do not know the
// key. Before the status route named the kind, the footprint's key was
// answered with the analysis, which decodes to an all-zero
// crisp.Footprint. The mux has no other route: a key's events and a batch
// of specs are 404s, as the endpoint list in cmd/crispd says.
func TestKindRoutes(t *testing.T) {
	pipe := runner.AnalysisSpec{Workload: "pointerchase", Insts: 20_000, Opts: crisp.DefaultOptions()}
	key := pipe.Key()
	rows := []*kind{analysisKind, footprintKind}
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{Workers: 2, Store: dir})
	posted := map[*kind][]byte{}
	for _, k := range rows {
		resp, rb := postSpec(t, ts1.URL+k.path+"?wait=1", pipe)
		var st JobStatus
		if err := json.Unmarshal(rb, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone || st.Key != key {
			t.Fatalf("POST %s?wait=1: HTTP %d: %.200s", k.path, resp.StatusCode, rb)
		}
		posted[k] = st.Result
	}
	var fp crisp.Footprint
	if err := json.Unmarshal(posted[footprintKind], &fp); err != nil || fp.StaticBytesBase == 0 {
		t.Fatalf("the footprint POST's result %.200s (%v) is not a footprint", posted[footprintKind], err)
	}

	check := func(t *testing.T, url string) {
		t.Helper()
		for _, k := range rows {
			code, st := getStatus(t, url+k.path+"/"+key)
			if code != http.StatusOK || st.Kind != k.name || st.State != StateDone || !bytes.Equal(st.Result, posted[k]) {
				t.Errorf("GET %s/{key}: HTTP %d, kind %q, state %s, result %.80s; want the %s POST's result", k.path, code, st.Kind, st.State, st.Result, k.name)
			}
		}
		for _, k := range []*kind{runKind, multiKind} {
			if code, _ := getStatus(t, url+k.path+"/"+key); code != http.StatusNotFound {
				t.Errorf("GET %s/{key} of a pipeline key: HTTP %d, want 404", k.path, code)
			}
		}
		for _, k := range kinds {
			if code, _ := getStatus(t, url+k.path+"/"+key+"/events"); code != http.StatusNotFound {
				t.Errorf("GET %s/{key}/events: HTTP %d, want 404", k.path, code)
			}
		}
		if resp, rb := postSpec(t, url+"/v1/sweeps", map[string]any{"runs": []sim.RunSpec{fastSpec()}}); resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST /v1/sweeps: HTTP %d (%s), want 404", resp.StatusCode, rb)
		}
	}
	t.Run("live", func(t *testing.T) { check(t, ts1.URL) })
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Run("store", func(t *testing.T) {
		s2, ts2 := newTestServer(t, Options{Workers: 2, Store: dir})
		check(t, ts2.URL)
		if st := s2.Runner().Stats(); st.Started != 0 {
			t.Errorf("the restarted server started %d tasks", st.Started)
		}
	})
}

// TestDrainAnswersHeld: while draining, fresh work is refused with 503
// and held results are answered: a result held in the table and one only
// the store holds are both served done, and a fresh spec gets 503, starts
// nothing and has no status.
func TestDrainAnswersHeld(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Store: t.TempDir()})
	inTable, inStore := fastSpec(), sim.RunSpec{Workload: "pointerchase", Insts: 21_000}
	fresh := sim.RunSpec{Workload: "pointerchase", Insts: 22_000}
	tableRaw := serveResult(t, ts.URL, inTable)
	storeRaw := publish(t, s, inStore, 1234)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	executed := s.Runner().Stats().Executed

	for _, held := range []struct {
		spec sim.RunSpec
		raw  []byte
	}{{inTable, tableRaw}, {inStore, storeRaw}} {
		if got := serveResult(t, ts.URL, held.spec); !bytes.Equal(got, held.raw) {
			t.Errorf("held %s while draining: served %.200s, want %.200s", held.spec.Key(), got, held.raw)
		}
	}
	if resp, rb := postSpec(t, ts.URL+"/v1/runs", fresh); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fresh submission while draining: HTTP %d: %s; want 503", resp.StatusCode, rb)
	}
	if code, _ := getStatus(t, ts.URL+"/v1/runs/"+fresh.Key()); code != http.StatusNotFound {
		t.Errorf("the refused spec has a status: HTTP %d, want 404", code)
	}
	if now := s.Runner().Stats().Executed; now != executed {
		t.Errorf("Executed %d -> %d while draining", executed, now)
	}
}

// TestAdmitAtQueueLimit: with the queue full, admission still answers what
// needs no new job. A resubmission of the queued spec attaches (202 under
// its key) and a result the store holds is served (200); only a fresh spec
// is refused, with 429 and Retry-After. Nothing of it executes.
func TestAdmitAtQueueLimit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Queue: 1, Store: t.TempDir()})
	// Cancel the slow job and wait for it before the store directory is
	// removed: Close only cancels, and the job's lock file may outlive it.
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Drain(ctx) //nolint:errcheck // a forced drain reports the cancellation
	})
	slow, stored, fresh := slowSpec(), fastSpec(), sim.RunSpec{Workload: "pointerchase", Insts: 21_000}
	storedRaw := publish(t, s, stored, 1234)
	executed := func(step string) {
		t.Helper()
		if ex := s.Runner().Stats().Executed; ex != 0 {
			t.Errorf("%s: Executed = %d, want 0", step, ex)
		}
	}
	for _, step := range []string{"the queue filler", "its resubmission"} {
		resp, rb := postSpec(t, ts.URL+"/v1/runs", slow)
		var st JobStatus
		if err := json.Unmarshal(rb, &st); err != nil || resp.StatusCode != http.StatusAccepted || st.Key != slow.Key() || st.State.terminal() {
			t.Fatalf("%s: HTTP %d: %s; want 202 and a live job under %s", step, resp.StatusCode, rb, slow.Key())
		}
		executed(step)
	}
	if got := serveResult(t, ts.URL, stored); !bytes.Equal(got, storedRaw) {
		t.Errorf("stored result at the limit: served %.200s, want %.200s", got, storedRaw)
	}
	executed("the stored result")
	resp, rb := postSpec(t, ts.URL+"/v1/runs", fresh)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("fresh spec at the limit: HTTP %d, Retry-After %q (%s); want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"), rb)
	}
	executed("the fresh spec")
}

// TestAdmitConcurrent: submissions of two overlapping specs race through
// the one admission path; each spec is simulated once, and every reply
// names its own key. Run with -race.
func TestAdmitConcurrent(t *testing.T) {
	// With a store, lookup also reads the entries of jobs still queued
	// or running, so -race sees it against their state changes.
	for _, name := range []string{"memory", "store"} {
		t.Run(name, func(t *testing.T) {
			opts := Options{Workers: 2}
			if name == "store" {
				opts.Store = t.TempDir()
			}
			s, _ := newTestServer(t, opts)
			specs := []sim.RunSpec{fastSpec(), {Workload: "pointerchase", Insts: 21_000}}
			h := s.Handler()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := 0; n < 20; n++ {
						spec := specs[(g+n)%2]
						body, _ := json.Marshal(spec)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
						var st JobStatus
						if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK || st.State != StateDone || st.Key != spec.Key() {
							t.Errorf("goroutine %d: submission: HTTP %d: %.200s", g, rec.Code, rec.Body)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if ex := s.Runner().Stats().Executed; ex != 2 {
				t.Errorf("Executed = %d, want 2", ex)
			}
		})
	}
}

// TestStatusPollsLiveJobs: status polls on a server with a store race
// the state changes of twelve submitted jobs from queued to done; each
// poll reads an entry's state under the table's lock. Run with -race.
func TestStatusPollsLiveJobs(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Store: t.TempDir()})
	h := s.Handler()
	var specs []sim.RunSpec
	for i := 0; i < 12; i++ {
		spec := sim.RunSpec{Workload: "pointerchase", Insts: 20_000 + 1000*uint64(i)}
		specs = append(specs, spec)
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submission %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, spec := range specs {
				for {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+spec.Key(), nil))
					var st JobStatus
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK || st.Key != spec.Key() {
						t.Errorf("poll: HTTP %d: %.200s", rec.Code, rec.Body)
						return
					}
					if st.State == StateDone {
						break
					}
					if st.State.terminal() {
						t.Errorf("poll: state %s: %s", st.State, st.Error)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
