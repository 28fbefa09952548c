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

// Tests of the encode-once serving path: the spliced envelope, the
// published-result cache and the one-pass client.

// TestWriteStatusMatchesWriteJSON pins the spliced envelope to the
// encoder it replaced: for every result kind, with and without
// timestamps, Error and Task, writeStatus emits exactly the bytes
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
			"task":       {Key: "k", Kind: kind, State: StateDone, Result: raw, Task: "ckpt abc running"},
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
			if cl := got.Header().Get("Content-Length"); len(st.Result) > 0 && st.Task == "" && cl != strconv.Itoa(got.Body.Len()) {
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

// TestResultCacheLRU: the cache holds published results up to its byte
// budget, evicts the least recently served, never caches an entry larger
// than the budget, and an evicted key is served from the store again —
// none of which costs a simulation or a job-table entry.
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
	s.published.budget = 2 * size // room for two
	serve := func(i int) {
		t.Helper()
		if got := serveResult(t, ts.URL, specs[i]); !bytes.Equal(got, raws[i]) {
			t.Errorf("spec %d: served %s, want %s", i, got, raws[i])
		}
	}
	wantStats := func(want ResultCacheStats) {
		t.Helper()
		if got := s.published.stats(); got != want {
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
	s.published.budget = size - 1
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
	s.published.budget = 2 * int64(len(raws[0]))
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
	st := s.published.stats()
	if st.Bytes > s.published.budget || st.Hits+st.Misses != 8*200 || st.Evictions == 0 {
		t.Errorf("result cache %+v after 1600 lookups under budget %d", st, s.published.budget)
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
// it and recomputes — the cache sits behind the validating load, never in
// front of it — and the recomputed result is then served from memory.
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
	if st := s.published.stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("result cache %+v, want 1 hit after 2 misses (corrupt, then recomputed)", st)
	}
	if ex := s.Runner().Stats().Executed; ex != 1 {
		t.Errorf("Executed = %d after resubmissions, want 1", ex)
	}
}

// TestSweepCorruptEntry: a sweep over a torn entry must run the job. With
// an existence check it answered "done" for the key and never started
// it, and the status poll that followed deleted the entry and returned
// 404 — the result was unobtainable.
func TestSweepCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, Store: dir})
	spec := fastSpec()
	path := corruptEntry(t, dir, spec, tornResult)

	body, _ := json.Marshal(SweepRequest{Runs: []sim.RunSpec{spec}})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readAllBody(resp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d, %v: %s", resp.StatusCode, err, rb)
	}
	rep := pollTerminal(t, ts.URL, spec.Key())
	if rep.State != StateDone || rep.Result == nil || rep.Result.Insts != spec.Insts {
		t.Fatalf("polled reply %+v (error %q), want done with the result", rep.JobStatus, rep.Error)
	}
	checkRecomputed(t, s, path, spec)
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
		name       string
		post, poll string // bodies of POST /v1/runs (202 when poll is set) and GET /v1/runs/k1
		wantErr    string // "" = a result with Cycles 12
		chunked    bool   // the POST reply states no Content-Length
		lie        int    // the POST reply states a Content-Length this far from the truth
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
		{name: "task-carrying status", post: `{"key":"k1","kind":"run","state":"done","submitted_unix_ns":1,"result":{"Cycles":12,"Insts":7},"task":"ckpt abc running"}`},
		{name: "trailing garbage", post: done + `{}`, wantErr: "decode job status"},
		{name: "202 then poll", post: `{"key":"k1","kind":"run","state":"running"}`, poll: done},
		{name: "202 then failed poll", post: `{"key":"k1","kind":"run","state":"queued"}`,
			poll: `{"key":"k1","kind":"run","state":"failed","error":"late boom"}`, wantErr: "job k1 failed: late boom"},
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
				if tc.poll != "" {
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
				fmt.Fprintln(w, tc.poll)
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
			if got, want := polls.Load(), map[bool]int32{false: 0, true: 1}[tc.poll != ""]; got != want {
				t.Errorf("%d status polls, want %d", got, want)
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
		Error: `"<&>" ü`, Submitted: 1, Started: 22, Finished: 333, Result: res, Task: "ckpt abc running"}); err != nil {
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
