package harness

import (
	"testing"

	"repro/internal/faultinject"
	"repro/internal/parallel"
)

// TestCampaignSliceDeterminism extends the sequential-vs-parallel
// determinism regression from the trial level up to a faultdrill
// campaign slice: a multi-scenario sweep rendered through the same
// Table 7.4 formatter the CLI uses must be byte-identical whether the
// trials run on one worker or four. This is the property that lets
// `faultdrill -j N` claim "same results at any -j".
func TestCampaignSliceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight injection trials")
	}
	// A slice of the §7.4 campaign: one fail-stop and one corruption
	// scenario, two trials each, exactly as cmd/faultdrill sweeps them.
	scenarios := []faultinject.Scenario{
		faultinject.NodeFailProcCreate,
		faultinject.CorruptAddrMap,
	}
	const trialsPer = 2

	run := func(workers int) ([]*Table74Row, string) {
		r := parallel.New(workers)
		var rows []*Table74Row
		for _, s := range scenarios {
			rows = append(rows, faultinject.RunScenario(r, s, trialsPer, faultinject.TrialOpts{}))
		}
		return rows, FormatTable74(rows)
	}

	seqRows, seqTable := run(1)
	parRows, parTable := run(4)

	for i := range seqRows {
		s, p := seqRows[i], parRows[i]
		if s.AllOK != p.AllOK {
			t.Errorf("%s: containment verdict diverged: seq=%v par=%v", s.Scenario, s.AllOK, p.AllOK)
		}
		if s.AvgDetect != p.AvgDetect || s.MaxDetect != p.MaxDetect {
			t.Errorf("%s: detection latency diverged: seq=(%v,%v) par=(%v,%v)",
				s.Scenario, s.AvgDetect, s.MaxDetect, p.AvgDetect, p.MaxDetect)
		}
		if s.AvgRecov != p.AvgRecov {
			t.Errorf("%s: recovery latency diverged: seq=%v par=%v", s.Scenario, s.AvgRecov, p.AvgRecov)
		}
		if len(s.Failures) != len(p.Failures) {
			t.Errorf("%s: failure list diverged: seq=%v par=%v", s.Scenario, s.Failures, p.Failures)
		} else {
			for j := range s.Failures {
				if s.Failures[j] != p.Failures[j] {
					t.Errorf("%s: failure %d diverged: seq=%q par=%q", s.Scenario, j, s.Failures[j], p.Failures[j])
				}
			}
		}
	}
	if seqTable != parTable {
		t.Errorf("rendered Table 7.4 diverged across worker counts:\n-j1:\n%s\n-j4:\n%s", seqTable, parTable)
	}
}
