package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"crisp/internal/checkpoint"
	"crisp/internal/core"
	"crisp/internal/crisp"
	"crisp/internal/emu"
	"crisp/internal/program"
	"crisp/internal/runner"
	"crisp/internal/sim"
	"crisp/internal/trace"
	"crisp/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Name is "<layer>.<what>"; Parent is the span that
// made the call (0 for none); spans of one job share its content key.
// Count carries the work the call did where a rate is wanted: bytes for
// codec and store spans, instructions for emu, trace, sim and core
// spans, allocated bytes for workload.build.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  int64   `json:"start_ns"` // since the tracer started
	End    int64   `json:"end_ns"`
	Count  float64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span is charged to.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	pending map[string]int64 // runner tasks: "kind|key" -> time of the last event
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), pending: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(parent int, name, job string, start, end int64, count float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: end, Count: count})
	return id
}

// do records a span around fn; fn gets the span's id, to parent the
// calls it makes, and returns the span's count.
func (t *tracer) do(parent int, name, job string, fn func(id int) float64) {
	id := t.add(parent, name, job, t.now(), 0, 0)
	c := fn(id)
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].Count = end, c
	t.mu.Unlock()
}

// child records a completed call of known duration inside parent, which
// started it at start: the host time a result reports for itself.
func (t *tracer) child(parent int, name, job string, start int64, d time.Duration, count float64) {
	end := start + int64(d)
	if now := t.now(); end > now { // windows run in parallel: their summed time can exceed the wall
		end = now
	}
	t.add(parent, name, job, start, end, count)
}

// onEvent turns the runner's task lifecycle into two spans per task:
// runner.queued (registered until it held a worker token) and
// runner.task.<kind> (from then until it finished).
func (t *tracer) onEvent(ev runner.TaskEvent) {
	now := t.now()
	k := ev.Kind + "|" + ev.Key
	t.mu.Lock()
	last, seen := t.pending[k]
	switch ev.State {
	case runner.TaskQueued:
		t.pending[k] = now
	case runner.TaskRunning:
		t.pending[k] = now
	default:
		delete(t.pending, k)
	}
	t.mu.Unlock()
	if !seen {
		return
	}
	switch ev.State {
	case runner.TaskRunning:
		t.add(0, "runner.queued", ev.Key, last, now, 0)
	case runner.TaskDone, runner.TaskFailed:
		t.add(0, "runner.task."+ev.Kind, ev.Key, last, now, 0)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans puts the spans in a JSON-lines file.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes charges every span below root its duration minus the part
// its children cover, and sums by layer. The "job" and "bench" layers
// only group calls and are left out.
func selfTimes(spans []span, root int) map[string]float64 {
	under := map[int]bool{root: true}
	covered := map[int]time.Duration{}
	for _, s := range spans { // parents are recorded before their children
		if under[s.Parent] {
			under[s.ID] = true
			covered[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		if !under[s.ID] || s.ID == root || s.layer() == "job" || s.layer() == "bench" {
			continue
		}
		if d := s.dur() - covered[s.ID]; d > 0 {
			self[s.layer()] += d.Seconds()
		}
	}
	return self
}

// walker executes, on one goroutine, the sequence of public calls the
// runner composes for a job, with a span around each: the layer walk.
// Like the runner it computes an analysis or a checkpoint set once and
// shares it between the jobs that need it. Results go to a scratch store.
type walker struct {
	ctx   context.Context
	tr    *tracer
	st    *runner.Store
	err   error // first failure; later steps are skipped
	an    map[string]*crisp.Analysis
	sets  map[string]*checkpoint.Set
	msets map[string]*checkpoint.MultiSet
}

func (w *walker) fail(what string, err error) {
	if w.err == nil && err != nil {
		w.err = fmt.Errorf("layer walk: %s: %w", what, err)
	}
}

func variantOf(input string) workload.Variant {
	if input == sim.InputTrain {
		return workload.Train
	}
	return workload.Ref
}

func (w *walker) build(parent int, job, app string, v workload.Variant) *sim.Image {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := w.tr.now()
	img := workload.ByName(app).Build(v)
	end := w.tr.now()
	runtime.ReadMemStats(&m1)
	w.tr.add(parent, "workload.build", job, start, end, float64(m1.TotalAlloc-m0.TotalAlloc))
	return img
}

// detail runs one full-detail simulation; the result's own HostNS is the
// core's share of the call, the rest is sim's wiring.
func (w *walker) detail(parent int, job string, img *sim.Image, cfg sim.Config) *core.Result {
	var res *core.Result
	w.tr.do(parent, "sim.run", job, func(id int) float64 {
		start := w.tr.now()
		r, err := sim.RunContext(w.ctx, img, cfg)
		w.fail("sim.RunContext", err)
		if err == nil {
			res = r
			w.tr.child(id, "core.run", job, start, time.Duration(r.HostNS), float64(r.Insts))
		}
		return 0
	})
	return res
}

func (w *walker) putGet(parent int, kind, key string, v, into any) {
	w.tr.do(parent, "store.put", key, func(int) float64 {
		w.fail("Store.Put", w.st.Put(kind, key, v))
		return 0
	})
	w.tr.do(parent, "store.get", key, func(int) float64 {
		if !w.st.Get(kind, key, into) {
			w.fail("Store.Get", fmt.Errorf("%s %s missing after Put", kind, key))
		}
		return 0
	})
}

// analysis is runner.analysisTask: profile the train input, capture its
// trace, analyse, store.
func (w *walker) analysis(parent int, spec runner.AnalysisSpec) *crisp.Analysis {
	key := spec.Key()
	if a, ok := w.an[key]; ok {
		return a
	}
	var a *crisp.Analysis
	w.tr.do(parent, "job.analysis", key, func(id int) float64 {
		profSpec := sim.RunSpec{Workload: spec.Workload, Input: sim.InputTrain, Insts: spec.Insts}
		cfg, err := profSpec.Config()
		w.fail("profile spec", err)
		prof := w.detail(id, key, w.build(id, key, spec.Workload, workload.Train), cfg)
		if w.err != nil {
			return 0
		}
		w.putGet(id, runner.KindRun, profSpec.Key(), prof, &core.Result{})
		img := w.build(id, key, spec.Workload, workload.Train)
		var tr *trace.Trace
		w.tr.do(id, "trace.capture", key, func(int) float64 {
			tr = sim.CaptureTrace(img, spec.Insts)
			return float64(tr.Len())
		})
		prog := w.build(id, key, spec.Workload, workload.Train).Prog
		w.tr.do(id, "crisp.analyze", key, func(int) float64 {
			a = crisp.Analyze(prof, tr, prog, spec.Opts)
			return 0
		})
		w.putGet(id, runner.KindAnalysis, key, a, &crisp.Analysis{})
		return 0
	})
	w.an[key] = a
	return a
}

// tagged builds a clause's image and applies its analysis, if any.
func (w *walker) tagged(parent int, job string, cs sim.RunSpec, budget uint64) *sim.Image {
	var a *crisp.Analysis
	if cs.Crisp != nil {
		a = w.analysis(parent, runner.AnalysisSpec{Workload: cs.Workload, Insts: budget, Opts: *cs.Crisp})
	}
	img := w.build(parent, job, cs.Workload, variantOf(cs.Input))
	if a != nil {
		w.tr.do(parent, "crisp.apply", job, func(int) float64 {
			img.Prog = a.Apply(img.Prog)
			return 0
		})
	}
	return img
}

// walkKey names a checkpoint set in the walk's scratch store.
func walkKey(parts ...any) string {
	h := sha256.Sum256([]byte(fmt.Sprint(parts...)))
	return hex.EncodeToString(h[:16])
}

// storeSet is what the runner and a second process do with a captured
// set between them: encode, put, get, decode. Every span carries the
// encoded size, so each gives a rate.
func (w *walker) storeSet(parent int, key string, encode func() []byte, put func() error, get func() bool, decode func([]byte) error) {
	var enc []byte
	w.tr.do(parent, "checkpoint.encode", key, func(int) float64 {
		enc = encode()
		return float64(len(enc))
	})
	w.tr.do(parent, "store.put_ckpt", key, func(int) float64 {
		w.fail("store: put checkpoint set", put())
		return float64(len(enc))
	})
	w.tr.do(parent, "store.get_ckpt", key, func(int) float64 {
		if !get() {
			w.fail("store: get checkpoint set", fmt.Errorf("set %s missing after put", key))
		}
		return float64(len(enc))
	})
	w.tr.do(parent, "checkpoint.decode", key, func(int) float64 {
		w.fail("checkpoint: decode set", decode(enc))
		return float64(len(enc))
	})
}

// ckptSet is runner.checkpointSet followed by what a second process does
// with the stored set: capture, encode, put, get, decode, restore.
func (w *walker) ckptSet(parent int, app string, v workload.Variant, s sim.Sampling) *checkpoint.Set {
	key := walkKey("ckpt", app, v, s)
	if set, ok := w.sets[key]; ok {
		return set
	}
	var set *checkpoint.Set
	w.tr.do(parent, "job.ckpt", key, func(id int) float64 {
		img := w.build(id, key, app, v)
		w.tr.do(id, "checkpoint.capture", key, func(int) float64 {
			var err error
			set, err = sim.CaptureCheckpointsContext(w.ctx, img, sim.DefaultConfig(), s)
			w.fail("sim.CaptureCheckpointsContext", err)
			if err != nil {
				return 0
			}
			return float64(set.FFInsts)
		})
		if w.err != nil {
			return 0
		}
		w.storeSet(id, key,
			func() []byte { return checkpoint.EncodeSet(set, key) },
			func() error { return w.st.PutCheckpoint(key, set) },
			func() bool { _, ok := w.st.GetCheckpoint(key); return ok },
			func(b []byte) error { _, err := checkpoint.DecodeSet(b, key); return err })
		for _, pt := range set.Points {
			w.tr.do(id, "checkpoint.restore", key, func(int) float64 {
				_, err := pt.Restore(img.Prog, sim.PFBOPStream.String())
				w.fail("Point.Restore", err)
				return 0
			})
		}
		return 0
	})
	w.sets[key] = set
	return set
}

// run is runner.runTask for one single-core spec.
func (w *walker) run(parent int, spec sim.RunSpec) *core.Result {
	key := spec.Key()
	var res *core.Result
	w.tr.do(parent, "job.run", key, func(id int) float64 {
		cfg, err := spec.Config()
		w.fail("spec", err)
		budget := spec.Insts
		if spec.Sampling != nil {
			budget = spec.Sampling.Total()
		}
		img := w.tagged(id, key, spec, budget)
		if w.err != nil {
			return 0
		}
		if spec.Sampling == nil {
			res = w.detail(id, key, img, cfg)
		} else {
			set := w.ckptSet(id, spec.Workload, variantOf(spec.Input), *spec.Sampling)
			if w.err != nil {
				return 0
			}
			w.tr.do(id, "sim.windows", key, func(wid int) float64 {
				start := w.tr.now()
				r, err := sim.RunSampledContext(w.ctx, set, img.Prog, cfg, *spec.Sampling)
				w.fail("sim.RunSampledContext", err)
				if err != nil {
					return 0
				}
				res = r
				w.tr.child(wid, "core.run", key, start, time.Duration(r.HostNS), float64(r.Insts))
				return float64(r.Insts)
			})
		}
		if w.err == nil {
			w.putGet(id, runner.KindRun, key, res, &core.Result{})
		}
		return 0
	})
	return res
}

// multiSet is runner.multiCheckpointSet plus the second process's half.
func (w *walker) multiSet(parent int, spec sim.MultiSpec, cfgs []sim.Config) *checkpoint.MultiSet {
	parts := []any{"mckpt", *spec.Sampling}
	for _, cs := range spec.Cores {
		parts = append(parts, cs.Workload, variantOf(cs.Input), cs.Prefetcher)
	}
	key := walkKey(parts...)
	if set, ok := w.msets[key]; ok {
		return set
	}
	var set *checkpoint.MultiSet
	w.tr.do(parent, "job.mckpt", key, func(id int) float64 {
		imgs := make([]*sim.Image, len(spec.Cores))
		for i, cs := range spec.Cores {
			imgs[i] = w.build(id, key, cs.Workload, variantOf(cs.Input))
		}
		w.tr.do(id, "checkpoint.capture_multi", key, func(int) float64 {
			var err error
			set, err = sim.CaptureMultiCheckpointsContext(w.ctx, imgs, cfgs, *spec.Sampling)
			w.fail("sim.CaptureMultiCheckpointsContext", err)
			if err != nil {
				return 0
			}
			return float64(set.FFInsts)
		})
		if w.err != nil {
			return 0
		}
		w.storeSet(id, key,
			func() []byte { return checkpoint.EncodeMultiSet(set, key) },
			func() error { return w.st.PutMultiCheckpoint(key, set) },
			func() bool { _, ok := w.st.GetMultiCheckpoint(key); return ok },
			func(b []byte) error { _, err := checkpoint.DecodeMultiSet(b, key); return err })
		return 0
	})
	w.msets[key] = set
	return set
}

func multiInsts(m *sim.MultiResult) float64 {
	n := 0.0
	for _, c := range m.Cores {
		n += float64(c.Insts)
	}
	return n
}

// multi is runner.multiTask for one co-run spec.
func (w *walker) multi(parent int, spec sim.MultiSpec) *sim.MultiResult {
	key := spec.Key()
	var res *sim.MultiResult
	w.tr.do(parent, "job.multi", key, func(id int) float64 {
		cfgs, err := spec.Configs()
		w.fail("spec", err)
		if w.err != nil {
			return 0
		}
		imgs := make([]*sim.Image, len(spec.Cores))
		for i, cs := range spec.Cores {
			budget := cs.Insts
			if spec.Sampling != nil {
				budget = spec.Sampling.Total()
			}
			imgs[i] = w.tagged(id, key, cs, budget)
		}
		if w.err != nil {
			return 0
		}
		lockstep := func(name string, fn func() (*sim.MultiResult, error)) {
			w.tr.do(id, name, key, func(sid int) float64 {
				start := w.tr.now()
				m, err := fn()
				w.fail(name, err)
				if err != nil {
					return 0
				}
				res = m
				w.tr.child(sid, "core.multi", key, start, time.Duration(m.HostNS), multiInsts(m))
				return multiInsts(m)
			})
		}
		if spec.Sampling == nil {
			lockstep("sim.run_multi", func() (*sim.MultiResult, error) {
				return sim.RunMultiContext(w.ctx, imgs, cfgs)
			})
		} else {
			set := w.multiSet(id, spec, cfgs)
			if w.err != nil {
				return 0
			}
			progs := make([]*program.Program, len(imgs))
			for i := range imgs {
				progs[i] = imgs[i].Prog
			}
			lockstep("sim.windows", func() (*sim.MultiResult, error) {
				return sim.RunMultiSampledContext(w.ctx, set, progs, cfgs, *spec.Sampling)
			})
		}
		if w.err == nil {
			w.putGet(id, runner.KindMulti, key, res, &sim.MultiResult{})
		}
		return 0
	})
	return res
}

// walk runs the layer walk over jobs under one root span and checks each
// walked result against the one the runner stored for the same key.
func (w *walker) walk(jobs []job, stored map[string]entry, res *repResult) int {
	var root int
	w.tr.do(0, "bench.walk", "", func(id int) float64 {
		root = id
		for _, j := range jobs {
			var got any
			switch j.Kind {
			case runner.KindRun:
				if r := w.run(id, j.Run); r != nil {
					got = r
				}
			case runner.KindMulti:
				if m := w.multi(id, j.Multi); m != nil {
					got = m
				}
			}
			if w.err != nil {
				return 0
			}
			e, ok := stored[j.Kind+"|"+j.key()]
			switch {
			case !ok || got == nil || e.Value == nil:
				res.op(fmt.Sprintf("layer walk of %s: no result to compare", j))
			case j.reproducible() && simHash(got) != simHash(e.Value):
				res.op(fmt.Sprintf("layer walk of %s does not reproduce the runner's result", j))
			default:
				res.op()
			}
		}
		return float64(len(jobs))
	})
	return root
}

// probes times the calls the walk makes too rarely for a percentile, or
// not at all: bare fast-forward and memory snapshots on one app, and the
// scratch store's put, get and lock on the run's own results.
func (w *walker) probes(p params, app string, entries []entry) {
	w.tr.do(0, "bench.probes", "", func(id int) float64 {
		img := workload.ByName(app).Build(workload.Ref)
		em := emu.New(img.Prog, img.Mem)
		for r, v := range img.Regs {
			em.SetReg(r, v)
		}
		w.tr.do(id, "emu.ff_bare", app, func(int) float64 {
			return float64(em.FastForward(p.budget(2_000_000), nil))
		})
		for i := 0; i < 200; i++ {
			w.tr.do(id, "emu.snapshot", app, func(int) float64 {
				em.Mem().Snapshot()
				return 0
			})
		}
		n := 0
		for _, e := range entries {
			if e.Value == nil || n >= 200 {
				continue
			}
			n++
			w.putGet(id, e.Kind, "probe-"+e.Key, e.Value, newResult(e.Kind))
			w.tr.do(id, "store.lock", e.Key, func(int) float64 {
				release, _, err := w.st.Lock(w.ctx, e.Kind, "probe-"+e.Key)
				w.fail("Store.Lock", err)
				if err == nil {
					release()
				}
				return 0
			})
		}
		return 0
	})
}
