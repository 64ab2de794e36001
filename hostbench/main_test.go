package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks the
// binary's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// checkMetrics demands exactly the declared metric names, each with its
// declared unit, and every one printed with its unit in the human report.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }, human string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
		if !strings.Contains(human, w.Name) || !strings.Contains(human, " "+w.Unit) {
			t.Errorf("%s: metric %s not printed with its unit", what, w.Name)
		}
	}
}

// TestTinyRuns runs one iteration of every workload untraced at the
// held-out seed and traced at the default seed (where the reference digest
// applies), and checks correctness, the metric sets, and the artifacts.
func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			seed := int64(heldOutSeed)
			if traced {
				seed = defaultSeed
			}
			rep, err := run(options{workload: w.Name, seed: seed, seconds: 0, trace: traced})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			var human strings.Builder
			printHuman(&human, rep)
			what := w.Name + map[bool]string{false: " untraced", true: " traced"}[traced]
			if !rep.Correct || rep.FailFrac != 0 || rep.Attempted < 1 {
				t.Errorf("%s: correct=%v fail_frac=%v attempted=%d problems=%v",
					what, rep.Correct, rep.FailFrac, rep.Attempted, rep.Problems)
			}
			if !strings.Contains(human.String(), "fail_frac") {
				t.Errorf("%s: fail_frac not printed", what)
			}
			checkMetrics(t, what, rep.EndToEnd, spec.EndToEnd, human.String())
			for name, m := range rep.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", what, name, m.Value)
				}
			}
			if !traced {
				continue
			}
			checkMetrics(t, what, rep.PerLayer, spec.PerLayer, human.String())
			if f := rep.PerLayer["profile.attributed_frac"].Value; f < 0.9 {
				t.Errorf("%s: only %.1f%% of CPU samples attributed to a named bucket", what, 100*f)
			}
			checkArtifacts(t, rep)
		}
	}
}

// checkArtifacts writes a traced report's artifacts and checks the spans
// load as Chrome trace-event JSON.
func checkArtifacts(t *testing.T, rep *report) {
	t.Helper()
	dir := t.TempDir()
	if err := writeArtifacts(dir, rep); err != nil {
		t.Fatalf("writing artifacts: %v", err)
	}
	sub := filepath.Join(dir, rep.Workload+"-seed1-trace1")
	for _, name := range []string{"report.json", "layers.txt", "cpu-0.pprof"} {
		if fi, err := os.Stat(filepath.Join(sub, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: artifact %s missing or empty (%v)", rep.Workload, name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(sub, "spans.json"))
	if err != nil {
		t.Fatalf("%s: %v", rep.Workload, err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: spans.json: %v", rep.Workload, err)
	}
	roots := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("%s: bad trace event %+v", rep.Workload, e)
		}
		if e.Name == rootSpan {
			roots++
		}
	}
	if roots == 0 || len(doc.TraceEvents) <= roots {
		t.Errorf("%s: %d events, %d iteration spans", rep.Workload, len(doc.TraceEvents), roots)
	}
}

// TestPlantedDigestMismatch proves the correctness check can fail: a wrong
// reference digest must fail every attempt.
func TestPlantedDigestMismatch(t *testing.T) {
	rep, err := run(options{workload: "pmake", seed: defaultSeed, seconds: 0, reference: "0000000000000000"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted || rep.FailFrac != 1 {
		t.Errorf("planted mismatch: correct=%v failed=%d attempted=%d fail_frac=%v",
			rep.Correct, rep.Failed, rep.Attempted, rep.FailFrac)
	}
	if line := resultLine(rep); line["correct"] != false {
		t.Errorf("result line reports correct=%v", line["correct"])
	}
}

// TestCampaignPhases checks the campaign's trial rotation: every phase has
// a reference digest, and the first phases of a run pick distinct trials of
// each scenario, as many as it has.
func TestCampaignPhases(t *testing.T) {
	for _, w := range workloads {
		if got := len(referenceDigest[w.name]); got != w.phases {
			t.Errorf("%s: %d reference digests for %d phases", w.name, got, w.phases)
		}
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		in := deriveInputs(seed)
		for i, s := range faultinject.AllScenarios() {
			n := min(4, s.DefaultTests())
			seen := map[int]bool{}
			for p := 0; p < n; p++ {
				seen[in.trials[p][i]] = true
			}
			if len(seen) != n {
				t.Errorf("seed %d, %v: first %d phases pick trials %v", seed, s, n, seen)
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	fr := func(names ...string) []profFunc {
		var out []profFunc
		for _, n := range names {
			file := "x.go"
			if n == "repro/internal/sim.(*Task).park" {
				file = "/src/internal/sim/task.go"
			}
			out = append(out, profFunc{Name: n, File: file})
		}
		return out
	}
	cases := []struct {
		stack []profFunc
		want  string
	}{
		{fr("runtime.chanrecv", "repro/internal/sim.(*Task).park", "repro/internal/vm.(*VM).Fault"), bucketTaskSwitch},
		{fr("container/heap.down", "repro/internal/sim.(*Engine).Step"), bucketDispatch},
		{fr("runtime.mallocgc", "repro/internal/vm.(*VM).Fault", "repro/internal/sim.(*Engine).Run"), "vm.ms"},
		{fr("runtime.scanobject", "runtime.gcAssistAlloc", "repro/internal/rpc.(*Endpoint).Call"), bucketGC},
		{fr("runtime.futex", "runtime.findRunnable", "runtime.schedule"), bucketSched},
		{fr("main.median", "main.run"), bucketHarness},
		{fr("runtime._ExternalCode"), bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack[0].Name, got, c.want)
		}
	}
}
