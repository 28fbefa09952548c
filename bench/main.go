// Command bench is the repository's benchmark: four workloads over the
// simulator's public packages, end-to-end metrics from one child process
// per workload that repeats the job set, and a traced run that charges
// host time to each layer.
//
//	bench/run.sh                              every workload, end-to-end metrics
//	bench/run.sh -workload served -seed 2     one workload, another seed
//	bench/run.sh -trace 1                     the traced run: per-layer metrics
//	bench/run.sh -compare A.json B.json       two result files against the bounds
//
// See README.md for what the workloads and metrics mean.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"crisp/internal/harness"
	"crisp/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: submission order, instruction budgets, request stream")
		reps     = fs.Int("reps", 3, "least number of timed repetitions per workload")
		seconds  = fs.Float64("seconds", 0, "keep adding repetitions while a workload's whole run stays within this many seconds (0 = exactly -reps)")
		traced   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		out      = fs.String("out", "", "result file (default bench/out/result.json, or bench/out/layers.json with -trace 1)")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments instead of running")
		child    = fs.String("child", "", "internal: run the workload described by this JSON in this process and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *child != "":
		return childMain(*child, stdout)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		return 2
	}
	names := workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s or all)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	s := &session{
		root: root, out: filepath.Join(root, "bench", "out"), stdout: stdout,
		seed: *seed, reps: *reps, seconds: *seconds, scale: 1, trace: *traced != 0, golden: true,
		spawn: func(p params) (*repResult, error) { return spawnChild(exe, p) },
	}
	if *out == "" {
		*out = filepath.Join(s.out, "result.json")
		if s.trace {
			*out = filepath.Join(s.out, "layers.json")
		}
	}
	rep, err := s.runAll(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult written to %s\n", *out)
	fmt.Fprintln(stdout, rep.lastLine())
	if rep.failed() > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

const goldenPath = "internal/harness/testdata/golden.txt"

// findRoot locates the repository checkout: the benchmark is started
// from its root (bench/run.sh) or from bench/ (go run .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/: %s not found", goldenPath)
}

// childMain is the child process: one workload, result on stdout.
func childMain(arg string, stdout io.Writer) int {
	var p params
	if err := json.Unmarshal([]byte(arg), &p); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	res, err := runRep(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// runRep runs one workload in this process.
func runRep(p params) (*repResult, error) {
	if p.Workload == "served" {
		return servedRep(p)
	}
	return batchRep(p)
}

// spawnChild runs one workload in a fresh process, so its first
// execution starts cold and it has its own CPU time and peak memory, and
// waits for it to end.
func spawnChild(exe string, p params) (*repResult, error) {
	p.T0 = time.Now().UnixNano()
	arg, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", string(arg))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child running %s: %w", p.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child running %s: decode result: %w", p.Workload, err)
	}
	return &res, nil
}

// session is one invocation of the benchmark.
type session struct {
	root    string // the repository checkout (the golden file is read from it)
	out     string // where scratch stores, span files and results go
	stdout  io.Writer
	seed    int64
	reps    int
	seconds float64
	scale   float64 // 1; tests shrink budgets and counts
	apps    int     // tests cap the app lists
	trace   bool
	golden  bool // run the golden gate before suite_detail
	spawn   func(params) (*repResult, error)
}

// workloadReport is one workload's part of the result file.
type workloadReport struct {
	Name string `json:"name"`
	opCount
	FailedFrac float64  `json:"failed_frac"`
	Notes      []string `json:"notes,omitempty"`
	// SimDigest covers the jobs whose results reproduce and must repeat
	// for a seed; SimDigestUnstable covers the rest (see job.reproducible)
	// and is informational.
	SimDigest         string    `json:"sim_digest"`
	SimDigestUnstable string    `json:"sim_digest_unstable,omitempty"`
	Metrics           []summary `json:"metrics"`
	// Measured are the times of an end-to-end run as measured, the
	// reference kernel's first, and RefFactor what the time metrics were
	// multiplied by: refNominal over the median reference time.
	Measured   []summary          `json:"measured,omitempty"`
	RefFactor  float64            `json:"ref_factor,omitempty"`
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// report is the result file.
type report struct {
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      map[string]string `json:"host"`
	Workloads []workloadReport  `json:"workloads"`
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// lastLine is the one-line JSON object a driver reads: the counts and
// the median of every metric. With one workload the names are bare; with
// several each is prefixed by its workload.
func (r *report) lastLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, w := range r.Workloads {
		line.Attempted += w.Ops
		line.Failed += w.Failed
		for _, m := range w.Metrics {
			name := m.Name
			if len(r.Workloads) > 1 {
				name = w.Name + "." + name
			}
			line.Metrics[name] = value{m.Median, m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil { // unreachable: plain data, NaN rejected earlier
		panic(err)
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (s *session) runAll(names []string) (*report, error) {
	rep := &report{Seed: s.seed, Trace: s.trace}
	if err := os.MkdirAll(filepath.Join(s.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(s.out, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(tmp)
	rep.Host = hostBlock(tmp)
	fmt.Fprintf(s.stdout, "host:")
	for _, k := range sortedKeys(rep.Host) {
		fmt.Fprintf(s.stdout, " %s=%q", k, rep.Host[k])
	}
	fmt.Fprintf(s.stdout, "\nseed %d, %s\n", s.seed,
		map[bool]string{false: "tracing off: end-to-end metrics", true: "traced run: per-layer metrics"}[s.trace])
	var reports []*workloadReport
	if s.trace {
		for _, name := range names {
			w, err := s.traced(name, filepath.Join(tmp, name))
			if err != nil {
				return nil, err
			}
			reports = append(reports, w)
		}
	} else if reports, err = s.endToEnd(names, tmp); err != nil {
		return nil, err
	}
	for _, w := range reports {
		if w.Ops > 0 {
			w.FailedFrac = float64(w.Failed) / float64(w.Ops)
		}
		rep.Workloads = append(rep.Workloads, *w)
		s.print(w)
	}
	return rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstDigest takes the workload's digests from its first execution.
func (w *workloadReport) firstDigest(r *repResult) {
	w.SimDigest, w.SimDigestUnstable = r.Digest, r.DigestUnstable
}

// sameDigest is one operation: another execution of the same seed must
// reproduce sim_digest. A difference in the digest over the jobs that do
// not reproduce at this commit is noted, once, not failed.
func (w *workloadReport) sameDigest(r *repResult, what string) {
	if r.Digest == w.SimDigest {
		w.op()
	} else {
		w.op(fmt.Sprintf("sim_digest %s differs from %s's %s", w.SimDigest, what, r.Digest))
	}
	if r.DigestUnstable != w.SimDigestUnstable && len(w.Notes) == 0 {
		w.Notes = append(w.Notes, "sim_digest_unstable differs from "+what+"'s: those jobs run the bop+stream prefetcher, whose results do not reproduce at this commit")
	}
}

// goldenGate renders the figure list of harness's TestGoldenFigures and
// compares it byte for byte with the committed golden file: the check
// that the code under the benchmark still is the simulator the repo's
// tests pin. It runs once per invocation that measures suite_detail,
// before the child starts, and is not part of any metric.
func (s *session) goldenGate(w *workloadReport) error {
	want, err := os.ReadFile(filepath.Join(s.root, goldenPath))
	if err != nil {
		return err
	}
	ctx := context.Background()
	r, err := runner.New(ctx, runner.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	defer r.Close()
	l := harness.NewLabWithRunner(60_000, r)
	l.Only = []string{"mcf", "lbm"}
	pend := []*harness.Pending{
		l.Figure1Skip(500, 12, 2), l.Section31(), l.Figure4(), l.Figure7(), l.Figure8(), l.Figure9(),
		l.Figure10(), l.Figure11(), l.Figure12(), l.PrefetcherSensitivity(), l.CycleAccounting(), l.SamplingValidation(),
	}
	var got strings.Builder
	for _, p := range pend {
		t, err := p.Table(ctx)
		if err != nil {
			return err
		}
		got.WriteString(t.Format())
	}
	if got.String() != string(want) {
		w.op("golden gate: the figures differ from " + goldenPath)
	} else {
		w.op()
	}
	return nil
}

// exitMargin is what an invocation keeps of -seconds for what follows the
// child's last repetition: its exit, the result file, the scratch
// directory's removal.
const exitMargin = time.Second

// endToEnd measures the named workloads with tracing off, one after the
// other, each in one child process: a first execution of the job set,
// whose time is part of setup_s, then timed repetitions of it, at least
// s.reps and more while the workload as a whole (golden gate and first
// execution included) stays within s.seconds. wall_ref_s and cpu_ref_s
// are medians over the timed repetitions; every time is multiplied by
// the run's reference factor (ref.go).
func (s *session) endToEnd(names []string, tmp string) ([]*workloadReport, error) {
	var reports []*workloadReport
	for _, name := range names {
		start := time.Now()
		w := &workloadReport{Name: name}
		if name == "suite_detail" && s.golden {
			if err := s.goldenGate(w); err != nil {
				return nil, err
			}
		}
		p := params{Workload: name, Seed: s.seed, Scale: s.scale, Apps: s.apps, Reps: s.reps, Dir: filepath.Join(tmp, name)}
		if s.seconds > 0 {
			p.Deadline = start.Add(time.Duration(s.seconds*float64(time.Second)) - exitMargin).UnixNano()
		}
		r, err := s.spawn(p)
		removeAll(p.Dir)
		if err != nil {
			return nil, err
		}
		w.add(r.opCount)
		w.firstDigest(r)
		for _, d := range asMeasured {
			if len(r.Samples[d.Name]) == 0 {
				return nil, fmt.Errorf("%s: the run reported no %s", name, d.Name)
			}
			w.Measured = append(w.Measured, summarize(d, r.Samples[d.Name]))
		}
		w.RefFactor = refNominal.Seconds() / w.Measured[0].Median
		for _, d := range endToEnd {
			v := append([]float64(nil), r.Samples[sampleOf[d.Name]]...)
			if len(v) == 0 {
				return nil, fmt.Errorf("%s: the run reported no %s", name, sampleOf[d.Name])
			}
			if d.Unit == "s" {
				for i := range v {
					v[i] *= w.RefFactor
				}
			}
			w.Metrics = append(w.Metrics, summarize(d, v))
		}
		reports = append(reports, w)
	}
	return reports, nil
}

// traced is the traced run of one workload: an untraced cold run to
// compare with, then one cold run with the runner's task events
// recorded, followed in the same process by the layer walk.
func (s *session) traced(name, dir string) (*workloadReport, error) {
	w := &workloadReport{Name: name}
	p := params{Workload: name, Seed: s.seed, Scale: s.scale, Apps: s.apps}
	p.Dir = filepath.Join(dir, "plain")
	plain, err := s.spawn(p)
	if err != nil {
		return nil, err
	}
	removeAll(p.Dir)
	p.Dir, p.Trace = filepath.Join(dir, "traced"), true
	r, err := s.spawn(p)
	if err != nil {
		return nil, err
	}
	w.add(r.opCount)
	w.firstDigest(r)
	w.sameDigest(plain, "the untraced run")
	r.Metrics["bench.trace_overhead_frac"] = r.Metrics["wall_s"]/plain.Metrics["wall_s"] - 1
	for _, d := range perLayer {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: traced run reported no %s", name, d.Name)
		}
		w.Metrics = append(w.Metrics, summarize(d, []float64{v}))
	}
	w.LayerSelfS = r.LayerSelfS
	w.TraceFile = filepath.Join(s.out, "trace-"+name+".jsonl")
	return w, os.Rename(filepath.Join(p.Dir, "trace.jsonl"), w.TraceFile)
}

// print writes one workload's metrics by name.
func (s *session) print(w *workloadReport) {
	fmt.Fprintf(s.stdout, "\n== %s ==  ops %d  failed %d  failed_frac %g\nsim_digest %s\n", w.Name, w.Ops, w.Failed, w.FailedFrac, w.SimDigest)
	if w.SimDigestUnstable != "" {
		fmt.Fprintf(s.stdout, "sim_digest_unstable %s\n", w.SimDigestUnstable)
	}
	for _, f := range w.Failures {
		fmt.Fprintf(s.stdout, "FAILED: %s\n", f)
	}
	for _, n := range w.Notes {
		fmt.Fprintf(s.stdout, "note: %s\n", n)
	}
	if s.trace {
		fmt.Fprintf(s.stdout, "%-32s %14s  %s\n", "metric", "value", "unit")
		for _, m := range w.Metrics {
			fmt.Fprintf(s.stdout, "%-32s %14.6g  %s\n", m.Name, m.Median, m.Unit)
		}
		total := 0.0
		for _, v := range w.LayerSelfS {
			total += v
		}
		fmt.Fprintf(s.stdout, "layer walk, self time by layer (%.3f s):", total)
		for _, l := range sortedKeys(w.LayerSelfS) {
			fmt.Fprintf(s.stdout, " %s %.1f%%", l, w.LayerSelfS[l]/total*100)
		}
		fmt.Fprintf(s.stdout, "\nspans: %s\n", w.TraceFile)
		return
	}
	fmt.Fprintf(s.stdout, "%-14s %12s %12s %12s %3s %8s %6s  %s\n", "metric", "median", "q1", "q3", "n", "spread", "bound", "unit")
	for _, m := range w.Metrics {
		fmt.Fprintf(s.stdout, "%-14s %12.6g %12.6g %12.6g %3d %7.1f%% %5.0f%%  %s\n",
			m.Name, m.Median, m.Q1, m.Q3, m.N, m.spread()*100, m.Bound*100, m.Unit)
	}
	fmt.Fprintf(s.stdout, "as measured (the times above are these times %.4f, %v over the median ref_s):\n", w.RefFactor, refNominal)
	for _, m := range w.Measured {
		fmt.Fprintf(s.stdout, "%-14s %12.6g %12.6g %12.6g %3d %7.1f%%         %s\n",
			m.Name, m.Median, m.Q1, m.Q3, m.N, m.spread()*100, m.Unit)
	}
}

// hostBlock describes the machine the numbers come from.
func hostBlock(tmp string) map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(procs()),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        "unknown",
		"tmp_fs":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(tmp, &st); err == nil {
		names := map[int64]string{0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs"}
		if n, ok := names[int64(st.Type)]; ok {
			h["tmp_fs"] = n
		} else {
			h["tmp_fs"] = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return h
}

// removeAll deletes a scratch directory.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: remove scratch dir:", err)
	}
}
