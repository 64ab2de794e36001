package harness

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// TestScaleDeterminism is the scaling suite's -j1 vs -j8 byte-identity
// gate: the rendered table and every row must match exactly whether the
// probes run sequentially or on eight workers — the property that lets
// `hivebench -only scale` claim identical rows at any -j.
func TestScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 8- and 16-cell hives repeatedly")
	}
	counts := []int{8, 16}

	run := func(workers int) string {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		rows := RunScale(counts, 1)
		for i := range rows {
			// The wall-clock dispatch rate is the rows' only
			// non-deterministic field; everything else must be identical.
			if rows[i].WallEventsPerSec <= 0 {
				t.Errorf("row %d missing wall dispatch rate: %+v", i, rows[i])
			}
			rows[i].WallEventsPerSec = 0
		}
		return fmt.Sprintf("%+v\n%s", rows, FormatScale(rows))
	}

	seq := run(1)
	par := run(8)
	if seq != par {
		t.Errorf("scale rows diverged across worker counts:\n-j1:\n%s\n-j8:\n%s", seq, par)
	}
	if seq != run(8) {
		t.Errorf("scale rows diverged across repeated same-seed runs")
	}
}

// TestScaleContainment16 asserts the fault campaign stays fully contained on
// a 16-cell Hive — the acceptance bar for scaling the recovery protocol.
func TestScaleContainment16(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 16-cell hives")
	}
	rows := RunScale([]int{16}, 1)
	r := rows[0]
	if !r.Contained {
		t.Fatalf("16-cell campaign not contained: %+v", r)
	}
	if r.DetectMs <= 0 || r.RecoveryMs <= 0 {
		t.Fatalf("missing latency measurements: %+v", r)
	}
	if !r.Contained || r.FaultTrials != len(scaleScenarios) {
		t.Fatalf("expected %d trials, got %+v", len(scaleScenarios), r)
	}
}
