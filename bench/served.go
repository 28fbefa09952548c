package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"crisp/internal/core"
	"crisp/internal/crispd"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// server is an in-process crispd on a loopback listener.
type server struct {
	srv  *crispd.Server
	http *http.Server
	done chan error
	base string
}

func startServer(ctx context.Context, storeDir string, procs int) (*server, error) {
	srv, err := crispd.New(ctx, crispd.Options{Store: storeDir, Workers: procs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the jobs, shuts the listener down and waits for the serve
// goroutine, so nothing of the server outlives the call.
func (s *server) stop(ctx context.Context) error {
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	// The clients share http.DefaultTransport and are done: drop its
	// connections first. Shutdown waits five seconds for a connection the
	// transport dialled ahead and never sent a request on.
	http.DefaultClient.CloseIdleConnections()
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.done; err != http.ErrServerClosed {
		return err
	}
	return s.srv.Close()
}

// request is one client call and its outcome.
type request struct {
	key        string
	start, end time.Time
	res        *core.Result
	err        error
}

func (q request) latency() time.Duration { return q.end.Sub(q.start) }

// drive runs one closed-loop client per element of plans: client c
// requests the specs pool[plans[c][i]] in order, each after the previous
// reply. The client count is GOMAXPROCS, so all load comes from this one
// process and never outnumbers the cores.
func drive(ctx context.Context, base string, pool []sim.RunSpec, plans [][]int) []request {
	out := make([][]request, len(plans))
	var wg sync.WaitGroup
	for c, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := crispd.NewClient(base)
			reqs := make([]request, len(plan))
			for i, idx := range plan {
				q := &reqs[i]
				q.key = pool[idx].Key()
				q.start = time.Now()
				q.res, q.err = cl.Run(ctx, pool[idx])
				q.end = time.Now()
			}
			out[c] = reqs
		}()
	}
	wg.Wait()
	var all []request
	for _, reqs := range out {
		all = append(all, reqs...)
	}
	return all
}

// once splits the pool across n clients, every spec requested one time.
func once(pool []sim.RunSpec, n int) [][]int {
	plans := make([][]int, n)
	for i := range pool {
		plans[i%n] = append(plans[i%n], i)
	}
	return plans
}

// zipf gives each of n clients count requests over the pool with
// Zipf(1.1) popularity, so a few specs take most of the traffic.
func zipf(seed int64, pool []sim.RunSpec, n, count int) [][]int {
	plans := make([][]int, n)
	for c := range plans {
		z := rand.NewZipf(rand.New(rand.NewSource(seed*131+int64(c))), 1.1, 1, uint64(len(pool)-1))
		plans[c] = make([]int, count)
		for i := range plans[c] {
			plans[c][i] = int(z.Uint64())
		}
	}
	return plans
}

func latencies(reqs []request) []float64 {
	ds := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		ds[i] = q.latency()
	}
	return msOf(ds)
}

// servedRun is one execution of the served workload: a server over an
// empty store, the fill, the replay.
type servedRun struct {
	fill, replay   []request
	fillWall, wall time.Duration
	h0, h1         hostUsage
	statsz         crispd.Statsz
}

// serve drives the fill and the replay against srv, which is over an
// empty store, and stops it. Fill: every spec of the pool is requested
// once, so every request builds, analyses, simulates and stores. Replay:
// the same pool under Zipf popularity, so every request is a store hit.
func serve(ctx context.Context, p params, srv *server, pool []sim.RunSpec, procs int) (*servedRun, error) {
	x := &servedRun{h0: readHost()}
	t0 := time.Now()
	x.fill = drive(ctx, srv.base, pool, once(pool, procs))
	x.fillWall = time.Since(t0)
	x.replay = drive(ctx, srv.base, pool, zipf(p.Seed, pool, procs, p.count(3000, 40)))
	x.wall = time.Since(t0)
	x.h1 = readHost()
	var err error
	if x.statsz, err = crispd.NewClient(srv.base).Statsz(ctx); err != nil {
		return nil, err
	}
	return x, srv.stop(ctx)
}

// servedRep runs the served workload in this process: a first execution
// whose time is part of setup_s and whose results are checked against
// local runs and a restarted server, then p.Reps timed repetitions, each
// a new server over another empty store (see batchRep).
func servedRep(p params) (*repResult, error) {
	procs := setProcs()
	pool := servedPool(p, rand.New(rand.NewSource(p.Seed)))
	storeDir := filepath.Join(p.Dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	res := newRepResult()
	refSpent := res.reference(p, procs)
	srv, err := startServer(ctx, storeDir, procs)
	if err != nil {
		return nil, err
	}
	first, err := serve(ctx, p, srv, pool, procs)
	if err != nil {
		return nil, err
	}
	res.Samples["setup_s"] = []float64{sinceUnix(p.T0) - refSpent}
	coldMetrics(res.Metrics, first.wall, first.h0, first.h1)

	// check records one operation per request: failed if the call failed
	// or, given want, if the result is not the one want holds for its key.
	check := func(what string, reqs []request, want map[string]string) {
		for _, q := range reqs {
			switch {
			case q.err != nil:
				res.op(fmt.Sprintf("%s %s: %v", what, q.key, q.err))
			case want != nil && want[q.key] != simHash(q.res):
				res.op(fmt.Sprintf("%s %s: result differs from the fill's", what, q.key))
			default:
				res.op()
			}
		}
	}
	// Every distinct spec, and the train-input profile behind each app's
	// analysis, is simulated exactly once however often it was asked for.
	apps := map[string]bool{}
	for _, s := range pool {
		apps[s.Workload] = true
	}
	// checkRun checks one execution's requests, a sample of the hits
	// against the fill (hashing a result costs as much as serving it),
	// and returns the fill's result hashes by key.
	checkRun := func(x *servedRun) map[string]string {
		check("fill", x.fill, nil)
		cold := make(map[string]string, len(x.fill))
		for _, q := range x.fill {
			if q.err == nil {
				cold[q.key] = simHash(q.res)
			}
		}
		check("replay", x.replay[:len(x.replay)/20+1], cold)
		check("replay", x.replay[len(x.replay)/20+1:], nil)
		if want := int64(len(pool) + len(apps)); x.statsz.Runner.Executed != want {
			res.op(fmt.Sprintf("server simulated %d runs for %d distinct specs + %d profiles", x.statsz.Runner.Executed, len(pool), len(apps)))
		} else {
			res.op()
		}
		return cold
	}
	cold := checkRun(first)
	entries, err := res.checkStore(storeDir)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(pool))
	for i, s := range pool {
		jobs[i] = runJob(s)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].key() < jobs[b].key() })
	res.digest(jobs, entries)
	// A sample of the served results against a local run of the spec.
	local, err := runner.New(ctx, runner.Options{Workers: procs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(pool); i += 16 {
		v, err := local.Run(ctx, pool[i])
		switch {
		case err != nil:
			res.op(fmt.Sprintf("local run %s: %v", pool[i].Key(), err))
		case simHash(v) != cold[pool[i].Key()]:
			res.op(fmt.Sprintf("served result %s differs from a local run", pool[i].Key()))
		default:
			res.op()
		}
	}
	if err := local.Close(); err != nil {
		return nil, err
	}

	// Warm: a restarted server over the store the first execution left
	// delivers the whole pool; once as a check, repeatedly when its time
	// is wanted.
	var warm []float64
	for start := settle(); len(warm) == 0 || (p.Trace && moreReplays(p, len(warm), start)); {
		t := time.Now()
		ws, err := startServer(ctx, storeDir, procs)
		if err != nil {
			return nil, err
		}
		reqs := drive(ctx, ws.base, pool, once(pool, procs))
		warm = append(warm, time.Since(t).Seconds())
		check("warm fetch", reqs, cold)
		wz, err := crispd.NewClient(ws.base).Statsz(ctx)
		if err != nil {
			return nil, err
		}
		if wz.Runner.Executed != 0 {
			res.op(fmt.Sprintf("restarted server simulated %d runs over a warm store", wz.Runner.Executed))
		}
		if err := ws.stop(ctx); err != nil {
			return nil, err
		}
	}

	// The timed repetitions (see batchRep).
	var longest time.Duration
	for n := 0; p.more(n, longest); n++ {
		t := settle()
		res.reference(p, procs)
		dir := filepath.Join(p.Dir, fmt.Sprint("rep", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rs, err := startServer(ctx, dir, procs)
		if err != nil {
			return nil, err
		}
		x, err := serve(ctx, p, rs, pool, procs)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", n, err)
		}
		res.sample(x.wall, x.h0, x.h1)
		checkRun(x)
		again, err := res.checkStore(dir)
		if err != nil {
			return nil, err
		}
		res.sameDigest(jobs, again)
		removeAll(dir)
		longest = max(longest, time.Since(t))
	}
	res.finish(p, procs)
	if !p.Trace {
		return res, nil
	}
	return res, traceServed(ctx, p, res, servedInputs{
		procs: procs, pool: pool, fill: first.fill, fillWall: first.fillWall, replay: first.replay, wall: first.wall, warmWall: median(warm),
		h0: first.h0, h1: first.h1, statsz: first.statsz, entries: entries, storeDir: storeDir,
	})
}
