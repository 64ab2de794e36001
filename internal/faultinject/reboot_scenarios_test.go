package faultinject

import "testing"

// rebootScenarios are the three availability-loop scenarios: they close
// the fault → reboot → rejoin → full-capacity loop and then attack it.
var rebootScenarios = []Scenario{FaultDuringReintegration, CrashLoop, RollingReboot}

// TestRebootScenariosContained runs every default trial of the three
// reboot scenarios: each must detect, contain, pass the workload checks,
// and close the loop the way its containment rule demands (exactly one
// costly rejoin, a bounded give-up, or a full rolling restoration).
func TestRebootScenariosContained(t *testing.T) {
	if testing.Short() {
		t.Skip("full reboot campaign; skipped with -short")
	}
	for _, s := range rebootScenarios {
		for trial := 0; trial < s.DefaultTests(); trial++ {
			tr := RunTrial(s, trial)
			if !tr.OK() {
				t.Errorf("%v trial %d failed: det=%v cont=%v integ=%v check=%v state=%v notes=%s",
					s, trial, tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK,
					tr.StateOK, tr.Notes)
				continue
			}
			t.Logf("%v trial %d ok rejoins=%d restore=%.1fms loop-p99=%.2fms",
				s, trial, tr.Rejoins, tr.RestoreMs, tr.LoopP99Ms)
		}
	}
}

// TestRebootScenarioMetrics pins the loop metrics for trial 0 of each
// scenario: the re-kill costs the joiner at least one extra attempt, the
// crash loop restores nothing, and the rolling reboot reports the worst
// pass.
func TestRebootScenarioMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("reboot trials; skipped with -short")
	}
	for _, s := range rebootScenarios {
		tr := RunTrial(s, 0)
		if !tr.OK() {
			t.Fatalf("%v trial 0 failed: %s", s, tr.Notes)
		}
		switch s {
		case FaultDuringReintegration:
			if tr.Rejoins != 1 || tr.RestoreMs <= 0 {
				t.Errorf("%v: rejoins=%d restore=%.1f, want exactly 1 rejoin with restore > 0",
					s, tr.Rejoins, tr.RestoreMs)
			}
		case CrashLoop:
			if tr.Rejoins != 0 || tr.RestoreMs != 0 {
				t.Errorf("%v: rejoins=%d restore=%.1f, want no rejoin and no restoration",
					s, tr.Rejoins, tr.RestoreMs)
			}
		case RollingReboot:
			if tr.Rejoins < 2 || tr.RestoreMs <= 0 {
				t.Errorf("%v: rejoins=%d restore=%.1f, want every victim restored",
					s, tr.Rejoins, tr.RestoreMs)
			}
		}
		if tr.LoopP99Ms <= 0 {
			t.Errorf("%v: loop p99 latency not measured", s)
		}
	}
}

// TestRebootScenarioTraceReproducible requires a same-seed rerun of each
// reboot scenario to reproduce the loop metrics and the engine's dispatch
// trace hash exactly.
func TestRebootScenarioTraceReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the reboot trials; skipped with -short")
	}
	for _, s := range rebootScenarios {
		a := RunTrialOpts(s, 0, TrialOpts{TraceHash: true})
		b := RunTrialOpts(s, 0, TrialOpts{TraceHash: true})
		if a.TraceHash == 0 || a.TraceHash != b.TraceHash {
			t.Errorf("%v: trace hash not reproducible: %x / %x", s, a.TraceHash, b.TraceHash)
		}
		if a.OK() != b.OK() || a.RestoreMs != b.RestoreMs ||
			a.LoopP99Ms != b.LoopP99Ms || a.Rejoins != b.Rejoins {
			t.Errorf("%v: rerun mismatch: ok=%v/%v restore=%v/%v p99=%v/%v rejoins=%d/%d notes=%q/%q",
				s, a.OK(), b.OK(), a.RestoreMs, b.RestoreMs, a.LoopP99Ms, b.LoopP99Ms,
				a.Rejoins, b.Rejoins, a.Notes, b.Notes)
		}
	}
}
