package crispd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/sim"
)

// The serving layer's own benchmarks (the end-to-end number is bench/'s
// served workload). All three move one ~2.5 kB core.Result, the size the
// served workload's replay moves 6000 times a repetition:
//
//	go test -run '^$' -bench . -benchtime 2000x ./internal/crispd

// benchSpec is a served-pool spec: 40k instructions of mcf under CRISP.
func benchSpec() sim.RunSpec {
	return sim.RunSpec{Workload: "mcf", Insts: 40_000, Prefetcher: sim.PFStride}.WithCrisp(crisp.DefaultOptions())
}

var benchResult *core.Result

// benchServe times closed-loop Client.Run calls for one key the server
// has already answered once.
func benchServe(b *testing.B, opts Options) {
	s, err := New(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := NewClient(ts.URL)
	ctx, spec := context.Background(), benchSpec()
	if _, err := c.Run(ctx, spec); err != nil { // the one simulation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = c.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeHit: submit-to-result for a published store entry.
func BenchmarkServeHit(b *testing.B) { benchServe(b, Options{Workers: 1, Store: b.TempDir()}) }

// BenchmarkServeHitRAMOnly: the same through the job table of a server
// without a store (the finished job answers).
func BenchmarkServeHitRAMOnly(b *testing.B) { benchServe(b, Options{Workers: 1}) }

// cannedTransport answers every request with one body, so
// BenchmarkClientDecode times the client alone.
type cannedTransport struct{ body []byte }

func (t cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{},
		ContentLength: int64(len(t.body)), Body: io.NopCloser(bytes.NewReader(t.body)), Request: req}, nil
}

// BenchmarkClientDecode: Client.Run over a transport that returns a done
// reply from memory — spec marshal, request construction, body read and
// the reply decode, no sockets.
func BenchmarkClientDecode(b *testing.B) {
	s, err := New(context.Background(), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	spec := benchSpec()
	res, err := s.Runner().Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(JobStatus{Key: spec.Key(), Kind: "run", State: StateDone, Result: raw})
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient("http://canned")
	c.hc = &http.Client{Transport: cannedTransport{body}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = c.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
