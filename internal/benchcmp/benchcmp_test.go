package benchcmp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(quick bool, exps ...Experiment) *Report {
	return &Report{Name: "hivebench", Quick: quick, Experiments: exps}
}

func exp(id string, kv ...any) Experiment {
	m := map[string]float64{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1].(float64)
	}
	return Experiment{ID: id, Metrics: m}
}

func TestIdenticalReportsPass(t *testing.T) {
	base := report(true, exp("t52", "local_us", 6.9, "remote_us", 50.7))
	res := Compare(base, base)
	if !res.OK() || res.Compared != 2 {
		t.Fatalf("identical reports should pass: %+v", res)
	}
}

func TestRelativeDriftOfOneInABillionFails(t *testing.T) {
	// The metrics come from a deterministic simulation: any difference,
	// however small and in either direction, is a behavior change.
	for _, f := range []float64{1 + 1e-9, 1 - 1e-9} {
		base := report(true, exp("t52", "remote_us", 50.7))
		cand := report(true, exp("t52", "remote_us", 50.7*f))
		res := Compare(base, cand)
		if res.OK() {
			t.Fatalf("drift x%v passed the exact gate", f)
		}
		if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "t52/remote_us") ||
			!strings.Contains(res.Failures[0], "50.7") {
			t.Fatalf("failure should name the metric and both values: %q", res.Failures)
		}
	}
}

func TestRegressionBeyondToleranceFails(t *testing.T) {
	// The gate's tolerance is zero, so a 6% regression is far beyond it.
	base := report(true, exp("t52", "remote_us", 50.7))
	cand := report(true, exp("t52", "remote_us", 50.7*1.06))
	res := Compare(base, cand)
	if res.OK() {
		t.Fatal("6% regression passed the exact gate")
	}
	if !strings.Contains(res.Failures[0], "t52/remote_us") {
		t.Fatalf("failure should name the metric: %q", res.Failures[0])
	}
}

func TestImprovementBeyondToleranceAlsoFails(t *testing.T) {
	// A large "improvement" in a deterministic metric is still an
	// unexplained behavior change; the baseline must be refreshed
	// deliberately, not drift silently.
	base := report(true, exp("t74", "s1_avg_detect_ms", 16.0))
	cand := report(true, exp("t74", "s1_avg_detect_ms", 10.0))
	if res := Compare(base, cand); res.OK() {
		t.Fatal("37% improvement should still trip the gate")
	}
}

func TestZeroBaselineFailsOnNonzeroCandidate(t *testing.T) {
	base := report(true, exp("t74", "failures", 0.0))
	for _, v := range []float64{1, -1, 1e-300} {
		if res := Compare(base, report(true, exp("t74", "failures", v))); res.OK() {
			t.Fatalf("0 -> %v change passed", v)
		}
	}
	if res := Compare(base, base); !res.OK() {
		t.Fatal("0 -> 0 should pass")
	}
}

func TestMissingExperimentFails(t *testing.T) {
	base := report(true, exp("t52", "local_us", 6.9), exp("rpc6", "null_us", 7.2))
	cand := report(true, exp("t52", "local_us", 6.9))
	res := Compare(base, cand)
	if res.OK() {
		t.Fatal("dropped experiment passed")
	}
	if !strings.Contains(res.Failures[0], `"rpc6"`) {
		t.Fatalf("failure should name the experiment: %q", res.Failures[0])
	}
}

func TestMissingMetricFails(t *testing.T) {
	base := report(true, exp("t52", "local_us", 6.9, "remote_us", 50.7))
	cand := report(true, exp("t52", "local_us", 6.9))
	if res := Compare(base, cand); res.OK() {
		t.Fatal("dropped metric passed")
	}
}

func TestNewExperimentAndMetricWarn(t *testing.T) {
	base := report(true, exp("t52", "local_us", 6.9))
	cand := report(true, exp("t52", "local_us", 6.9, "extra_us", 1.0), exp("detect43", "detect_ms_at_10ms", 3.0))
	res := Compare(base, cand)
	if !res.OK() {
		t.Fatalf("additions should warn, not fail: %v", res.Failures)
	}
	if len(res.Warnings) != 2 || !strings.Contains(res.Warnings[1], `"detect43"`) {
		t.Fatalf("want 2 warnings, the second naming detect43, got %v", res.Warnings)
	}
}

func TestQuickMismatchFails(t *testing.T) {
	base := report(true, exp("t52", "local_us", 6.9))
	cand := report(false, exp("t52", "local_us", 6.9))
	res := Compare(base, cand)
	if res.OK() {
		t.Fatal("quick-mode mismatch passed")
	}
	if !strings.Contains(res.Failures[0], "quick-mode mismatch") {
		t.Fatalf("unexpected failure: %q", res.Failures[0])
	}
}

func TestFailureOrderIsStable(t *testing.T) {
	base := report(true, exp("t52", "a", 1.0, "b", 2.0, "c", 3.0))
	cand := report(true, exp("t52", "a", 2.0, "b", 4.0, "c", 6.0))
	first := Compare(base, cand)
	for i := 0; i < 20; i++ {
		if got := Compare(base, cand); strings.Join(got.Failures, "\n") != strings.Join(first.Failures, "\n") {
			t.Fatal("failure order varies across runs")
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	doc := `{"name":"hivebench","quick":true,"experiments":[
		{"id":"t52","wall_ms":24.0,"metrics":{"local_us":6.9}}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quick || len(r.Experiments) != 1 || r.Experiments[0].Metrics["local_us"] != 6.9 {
		t.Fatalf("bad parse: %+v", r)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should error")
	}
}
