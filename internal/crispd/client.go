package crispd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/metrics"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// Client talks to a crispd server and satisfies runner.Remote, so a
// local Runner built with Options.Remote delegates whole tasks to the
// server while keeping its in-process memo table: within one harness
// process each spec costs one HTTP round trip, and across processes
// the server's job table plus store dedup the rest.
//
// Submissions use ?wait=1 so the response carries the result; 429
// backpressure is retried honoring Retry-After until the caller's
// context expires. The request path is a set of package-level generic
// functions over the result type (submit, finish, status), so each reply
// body is parsed once, straight into the typed result (reply).
type Client struct {
	base string
	hc   *http.Client
}

var _ runner.Remote = (*Client)(nil)

// NewClient returns a client for the crispd server at base, e.g.
// "http://sweepbox:8080".
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// maxResultBytes bounds result decoding (full-suite multi results with
// per-core breakdowns stay far under this).
const maxResultBytes = 256 << 20

// Run submits a single-core simulation and blocks for its result.
func (c *Client) Run(ctx context.Context, spec sim.RunSpec) (*core.Result, error) {
	return submit[core.Result](ctx, c, runKind.path, spec)
}

// RunMulti submits a multi-core co-run and blocks for its result.
func (c *Client) RunMulti(ctx context.Context, spec sim.MultiSpec) (*sim.MultiResult, error) {
	return submit[sim.MultiResult](ctx, c, multiKind.path, spec)
}

// Analysis submits a criticality-analysis pipeline task.
func (c *Client) Analysis(ctx context.Context, spec runner.AnalysisSpec) (*crisp.Analysis, error) {
	return submit[crisp.Analysis](ctx, c, analysisKind.path, spec)
}

// Footprint submits a slice-footprint pipeline task.
func (c *Client) Footprint(ctx context.Context, spec runner.AnalysisSpec) (*crisp.Footprint, error) {
	return submit[crisp.Footprint](ctx, c, footprintKind.path, spec)
}

// Statsz fetches the server's counters.
func (c *Client) Statsz(ctx context.Context) (Statsz, error) {
	var st Statsz
	resp, body, err := c.do(ctx, http.MethodGet, "/v1/statsz", nil)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("crispd client: statsz: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return st, json.Unmarshal(body, &st)
}

// do performs one request and reads the whole reply.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("crispd client: %w", err)
	}
	rb, err := readReply(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("crispd client: read response: %w", err)
	}
	return resp, rb, nil
}

// readReply reads and closes a response body, at most maxResultBytes of
// it. The server states a result's length, so the buffer starts at that
// size instead of growing to it by doubling; a length that is missing, or
// smaller than what arrives, only costs the growth it would have saved.
func readReply(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxResultBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF without growing
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResultBytes))
	return buf.Bytes(), err
}

// reply is a response body decoded for a caller that knows the result
// type: JobStatus.Result stays nil, the result is decoded into a T. A
// missing or null result leaves Result nil.
type reply[T any] struct {
	JobStatus
	Result *T `json:"result"`
}

// decodeReply reads body, as the server's encoder writes it and nothing
// else, in one pass; a core.Result in it is read by its own decoder.
func decodeReply[T any](body []byte) (reply[T], error) {
	var rep reply[T]
	r := metrics.NewReader(body)
	r.Object(func(key []byte) {
		switch string(key) {
		case "key":
			rep.Key = r.String()
		case "kind":
			rep.Kind = r.String()
		case "state":
			rep.State = JobState(r.String())
		case "error":
			rep.Error = r.String()
		case "submitted_unix_ns":
			rep.Submitted = r.Int()
		case "started_unix_ns":
			rep.Started = r.Int()
		case "finished_unix_ns":
			rep.Finished = r.Int()
		case "task":
			rep.Task = r.String()
		case "result":
			if rep.Result = nil; !r.Null() {
				rep.Result = new(T)
				if err := runner.Unmarshal(r.Skip(), rep.Result); err != nil {
					r.Fail(err)
				}
			}
		default:
			r.Fail(errors.New("unknown field"))
		}
	})
	if err := r.End(); err != nil {
		return reply[T]{}, fmt.Errorf("crispd client: decode job status: %w", err)
	}
	return rep, nil
}

// submit POSTs spec to path with ?wait=1, waits out 429 backpressure as
// long as the server asks, and returns the terminal job's result.
func submit[T any](ctx context.Context, c *Client, path string, spec any) (*T, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("crispd client: marshal spec: %w", err)
	}
	for {
		resp, rb, err := c.do(ctx, http.MethodPost, path+"?wait=1", body)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(retryAfter(resp, time.Second)):
			}
		case http.StatusOK, http.StatusAccepted:
			rep, err := decodeReply[T](rb)
			if err != nil {
				return nil, err
			}
			return finish(ctx, c, rep)
		default:
			return nil, fmt.Errorf("crispd client: %s %s: %s: %s", http.MethodPost, path, resp.Status, strings.TrimSpace(string(rb)))
		}
	}
}

// finish turns a terminal reply into its result or an error, polling the
// job if the server answered before it reached a terminal state.
func finish[T any](ctx context.Context, c *Client, rep reply[T]) (*T, error) {
	for !rep.State.terminal() {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
		var err error
		if rep, err = status[T](ctx, c, rep.Key); err != nil {
			return nil, err
		}
	}
	if rep.State == StateFailed {
		return nil, fmt.Errorf("crispd client: job %s failed: %s", rep.Key, rep.Error)
	}
	if rep.Result == nil {
		return nil, fmt.Errorf("crispd client: job %s is done but the reply carries no result", rep.Key)
	}
	return rep.Result, nil
}

// status polls GET /v1/runs/{key}.
func status[T any](ctx context.Context, c *Client, key string) (reply[T], error) {
	resp, rb, err := c.do(ctx, http.MethodGet, "/v1/runs/"+key, nil)
	if err != nil {
		return reply[T]{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply[T]{}, fmt.Errorf("crispd client: status %s: %s: %s", key, resp.Status, strings.TrimSpace(string(rb)))
	}
	return decodeReply[T](rb)
}

// retryAfter parses the Retry-After header, defaulting (and capping)
// sensibly so a misbehaving server cannot park the client forever.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	s, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || s < 0 {
		return fallback
	}
	d := time.Duration(s) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	if d == 0 {
		d = 100 * time.Millisecond
	}
	return d
}
