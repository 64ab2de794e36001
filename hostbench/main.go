// Command hostbench measures what running the Hive reproduction costs on
// the host: time to result, simulator speed, CPU and memory, for three
// workloads (pmake, frontend, campaign). It drives only the program's
// public entry points, checks every iteration's simulated results, and in
// a separate traced run attributes host time to the repo's modules.
//
// Usage (from the repository root; hostbench/run.py builds and runs it):
//
//	hostbench -workload pmake -seed 1 -seconds 30 -trace 0 -out .bench_build/hostbench
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1). Exit status is 1 when a check failed, 2 on a
// usage or I/O error. See hostbench/README.md for every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // artifact directory; "" writes none
	// reference overrides the expected digest; the self-test plants a
	// mismatch through it.
	reference string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      map[string]any    `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Samples   int               `json:"host_s_samples"`
	HostAll   []float64         `json:"host_s_all"` // every untraced iteration, in order
	Digest    string            `json:"digest"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Overhead  float64           `json:"trace_overhead,omitempty"`
	layers    string            // per-layer self-time table (traced runs)
	spanTable string            // span self-time table (traced runs)
	spans     []span
	profiles  [][]byte
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "pmake", "workload: pmake, frontend or campaign")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (reference digests are recorded at the default)")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured host seconds (0 = one iteration)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", "", "directory for report.json and trace artifacts")
	flag.Parse()
	o.trace = trace != 0

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	printHuman(os.Stdout, rep)
	if o.outDir != "" {
		if err := writeArtifacts(o.outDir, rep); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(resultLine(rep))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// resultLine is the final JSON line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func resultLine(rep *report) map[string]any {
	ms := rep.EndToEnd
	if rep.Trace {
		ms = rep.PerLayer
	}
	return map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": ms}
}

// memIters is the number of iterations peak_rss_mb covers. The program
// never tears a hive down (its parked task goroutines keep it reachable),
// so RSS grows with every iteration; reading it after a fixed amount of
// work keeps the figure independent of how fast the host runs the loop.
const memIters = 3

// phase is the iterations of one kind (untraced or traced) of a run.
type phase struct {
	iters  []*iterResult
	setups []float64
}

func (p phase) hostMedian() float64 {
	return median(collect(p.iters, func(r *iterResult) float64 { return r.hostS }))
}

// loop runs iterations back to back until d has elapsed, at least one
// untraced and, with a tracer, one traced; with a tracer every other
// iteration is traced, and each untraced/traced pair runs the same phase so
// the two sides see the same work. rssMB is the peak RSS once
// min(memIters, iterations) had completed.
func loop(b *bench, w workloadDef, d time.Duration, tr *tracer) (plain, traced phase, rssMB float64, err error) {
	start := time.Now()
	for it := 0; len(plain.iters) == 0 || (tr != nil && len(traced.iters) == 0) || time.Since(start) < d; it++ {
		phase := it % w.phases
		if tr != nil {
			phase = it / 2 % w.phases
		}
		var r *iterResult
		body := func() {
			root := timed(rootSpan, it, 0, func() { r = w.iter(b, it, phase) })
			r.iter, r.phase = it, phase
			r.spans = append(r.spans, root)
		}
		p := &plain
		if tr != nil && it%2 == 1 {
			p = &traced
			if err := tr.run(body); err != nil {
				return plain, traced, 0, err
			}
		} else {
			body()
		}
		p.iters = append(p.iters, r)
		p.setups = append(p.setups, r.setupS)
		if it < memIters {
			rssMB = peakRSSMB()
		}
	}
	return plain, traced, rssMB, nil
}

func run(o options) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 0 {
		return nil, errors.New("-seconds must be >= 0")
	}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b := &bench{in: deriveInputs(o.seed), workers: workers, runner: parallel.New(workers)}
	// want holds the expected digest of each phase; "" is learnt from the
	// run's first iteration of that phase.
	want := make([]string, w.phases)
	for p := range want {
		switch {
		case o.reference != "":
			want[p] = o.reference
		case o.seed == defaultSeed:
			want[p] = referenceDigest[w.name][p]
		}
	}

	// setup_s: the one-time set-up where the workload has one, else each
	// iteration's boot.
	var setups []float64
	if w.setup != nil {
		setups = w.setup(b)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	plain, traced, rssMB, err := loop(b, w, time.Duration(o.seconds*float64(time.Second)), tr)
	if err != nil {
		return nil, err
	}
	if w.setup == nil {
		setups = plain.setups
	}
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Host: hostShape(workers)}
	if tr != nil {
		rep.PerLayer = tr.perLayer(traced.iters, workers, w.setup != nil)
		if w.setup != nil {
			rep.PerLayer["core.boot_ms"] = metric{median(setups) * 1e3, "ms"}
		}
		rep.Overhead = traced.hostMedian() / plain.hostMedian()
		rep.PerLayer["trace.overhead"] = metric{rep.Overhead, "ratio"}
		for _, r := range traced.iters {
			rep.spans = append(rep.spans, r.spans...)
		}
		rep.layers = tr.attr.table(len(traced.iters))
		rep.spanTable = spanSelfTimes(rep.spans, len(traced.iters))
		rep.profiles = tr.profiles
	}

	// Correctness: every iteration's checks, and its digest against the
	// reference (default seed) or the run's first iteration of the same
	// phase (any seed: the model is deterministic).
	all := append(append([]*iterResult(nil), plain.iters...), traced.iters...)
	sort.Slice(all, func(i, j int) bool { return all[i].iter < all[j].iter })
	rep.Digest = all[0].digest
	for _, r := range all {
		i, p := r.iter, r.phase
		if want[p] == "" {
			want[p] = r.digest
		}
		rep.Attempted += r.attempted
		failed := r.failed
		if failed == 0 && len(r.problems) > 0 {
			failed = r.attempted
		}
		if r.digest != want[p] {
			failed = r.attempted
			rep.Problems = append(rep.Problems, fmt.Sprintf("iteration %d: digest %s, want %s", i, r.digest, want[p]))
		}
		rep.Failed += failed
		for _, msg := range r.problems {
			rep.Problems = append(rep.Problems, fmt.Sprintf("iteration %d: %s", i, msg))
		}
	}
	rep.Correct = rep.Failed == 0
	rep.FailFrac = float64(rep.Failed) / float64(rep.Attempted)

	rep.Samples = len(plain.iters)
	rep.HostAll = collect(plain.iters, func(r *iterResult) float64 { return r.hostS })
	// Iterations that simulate the same thing give comparable per-iteration
	// speeds, of which the median resists host noise; a workload cycling
	// through phases of different work is pooled over the whole run.
	speed := median(collect(plain.iters, func(r *iterResult) float64 { return r.vsec / r.hostS }))
	if w.phases > 1 {
		speed = sum(collect(plain.iters, func(r *iterResult) float64 { return r.vsec })) / sum(rep.HostAll)
	}
	rep.EndToEnd = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"host_s":          {plain.hostMedian(), "s"},
		"vsec_per_host_s": {speed, "vs/s"},
		"cpu_s":           {median(collect(plain.iters, func(r *iterResult) float64 { return r.cpuS })), "s"},
		"peak_rss_mb":     {rssMB, "MB"},
	}
	return rep, nil
}

// hostShape describes the machine; host times compare only between
// reports of the same shape.
func hostShape(workers int) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": model, "campaign_workers": workers,
	}
}

// rusage reads the process's resource usage; getrusage(RUSAGE_SELF)
// cannot fail with a valid buffer, so an error leaves it zero.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+sys CPU time, all threads.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func collect(rs []*iterResult, f func(*iterResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// printHuman writes the readable report: host shape, every end-to-end
// metric with its unit (fail_frac included), and for traced runs the
// per-layer tables.
func printHuman(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "hostbench %s seed=%d trace=%v  host: nproc=%v GOMAXPROCS=%v %v cpu=%q campaign_workers=%v\n",
		rep.Workload, rep.Seed, rep.Trace, h["nproc"], h["gomaxprocs"], h["go"], h["cpu"], h["campaign_workers"])
	for _, k := range sortedKeys(rep.EndToEnd) {
		m := rep.EndToEnd[k]
		extra := ""
		if k == "host_s" {
			extra = fmt.Sprintf("  (median of %d)", rep.Samples)
		}
		fmt.Fprintf(w, "  %-18s %14.6f %s%s\n", k, m.Value, m.Unit, extra)
	}
	fmt.Fprintf(w, "  %-18s %14.6f ratio  (%d failed of %d attempted)  digest %s\n",
		"fail_frac", rep.FailFrac, rep.Failed, rep.Attempted, rep.Digest)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
	if rep.Trace {
		fmt.Fprintf(w, "traced run: overhead %.3fx (traced host_s / untraced host_s)\n%s\n%s",
			rep.Overhead, rep.layers, rep.spanTable)
		for _, k := range sortedKeys(rep.PerLayer) {
			m := rep.PerLayer[k]
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeArtifacts replaces dir/<workload>-seed<N>-trace<0|1>/ with
// report.json and, for traced runs, the layer table, the spans as Chrome
// trace-event JSON and the raw CPU profiles.
func writeArtifacts(dir string, rep *report) error {
	trace := 0
	if rep.Trace {
		trace = 1
	}
	dir = filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, trace))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	files := map[string][]byte{"report.json": append(js, '\n')}
	if rep.Trace {
		var chrome bytes.Buffer
		other := map[string]any{"host": rep.Host, "workload": rep.Workload, "seed": rep.Seed, "trace_overhead": rep.Overhead}
		if err := writeChrome(&chrome, rep.spans, other); err != nil {
			return err
		}
		files["spans.json"] = chrome.Bytes()
		files["layers.txt"] = []byte(fmt.Sprintf("tracing overhead %.3fx\n\n%s\n%s", rep.Overhead, rep.layers, rep.spanTable))
		for i, p := range rep.profiles {
			files[fmt.Sprintf("cpu-%d.pprof", i)] = p // one per traced iteration; `go tool pprof` merges them
		}
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
