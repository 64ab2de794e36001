// Command hivemort is the post-mortem forensics tool: it re-derives
// fault-containment verdicts purely from the structured trace
// (internal/forensic) and cross-checks them against the fault-injection
// harness's live-state verdicts, failing loudly on any disagreement.
// It also renders the causal fault-propagation graph and the virtual-time
// profile.
//
// Usage:
//
//	hivemort                      # audit the full default campaign (137 trials)
//	hivemort -trials 3            # 3 trials per scenario
//	hivemort -cells 16            # audit a 16-cell campaign
//	hivemort -j 8                 # fan trials across 8 workers (same report at any -j)
//	hivemort -scenario 4 -trial 2 # full forensic report for one trial
//	hivemort -top 5               # top-5 span names per subsystem in profiles
//	hivemort -json -o mort.json   # machine-readable audit report
//	hivemort -trials 15 -json     # 15 trials of every scenario (nightly artifact)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/forensic"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// trialAudit is one trial's cross-check: the harness verdict (live kernel
// state) next to the trace-derived verdict, compact enough to keep for
// every trial of a campaign (the event stream itself is dropped as soon
// as the forensic pass is done).
type trialAudit struct {
	Trial            int              `json:"trial"`
	Seed             int64            `json:"seed"`
	TargetCell       int              `json:"target_cell"`
	HarnessDetected  bool             `json:"harness_detected"`
	HarnessContained bool             `json:"harness_contained"`
	Audit            forensic.Verdict `json:"audit"`
	Agree            bool             `json:"agree"`
	Events           int              `json:"events"`
	DroppedEvents    uint64           `json:"dropped_events"`
}

// scenarioAudit aggregates one scenario's trials.
type scenarioAudit struct {
	Scenario      int          `json:"scenario"`
	Name          string       `json:"name"`
	Tests         int          `json:"tests"`
	Agree         int          `json:"agree"`
	Detected      int          `json:"detected"`
	Contained     int          `json:"contained"`
	Escapes       int          `json:"escapes"`
	Rejoins       int          `json:"rejoins"` // join-round commits seen in the traces
	Events        int64        `json:"events"`
	DroppedEvents uint64       `json:"dropped_events"`
	Trials        []trialAudit `json:"trials"`
}

// mortReport is the -json document. The worker-count and wall-clock
// fields ("jobs", "gomaxprocs", "total_wall_ms") are the only
// run-shape-dependent ones; every other field is identical at any -j.
type mortReport struct {
	Name              string          `json:"name"`
	GoVersion         string          `json:"go_version"`
	GOMAXPROCS        int             `json:"gomaxprocs"`
	Jobs              int             `json:"jobs"`
	TrialsPerScenario int             `json:"trials_per_scenario"`
	Cells             int             `json:"cells"`
	Scenarios         []scenarioAudit `json:"scenarios"`
	Trials            int             `json:"trials"`
	Agreements        int             `json:"agreements"`
	Disagreements     []string        `json:"disagreements"`
	AllAgree          bool            `json:"all_agree"`
	TotalWallMs       float64         `json:"total_wall_ms"`
}

func main() {
	var (
		trials   = flag.Int("trials", 0, "trials per scenario (0 = the default campaign counts)")
		cells    = flag.Int("cells", 4, "hive cell count (4 = the paper's machine)")
		scenario = flag.Int("scenario", -1, fmt.Sprintf("full forensic report for one scenario (0-%d)", faultinject.NumScenarios-1))
		trial    = flag.Int("trial", 0, "trial index for -scenario")
		topN     = flag.Int("top", 3, "top span names per subsystem in profiles")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "parallel trial workers (1 = sequential)")
		jsonOut  = flag.Bool("json", false, "emit the machine-readable audit report instead of the table")
		outPath  = flag.String("o", "", "write the -json report to a file instead of stdout")
	)
	flag.Parse()

	parallel.SetDefaultWorkers(*jobs)

	if *cells < 4 || *cells > core.MaxCells {
		fmt.Fprintf(os.Stderr, "hivemort: -cells %d: campaign needs 4..%d cells\n", *cells, core.MaxCells)
		os.Exit(2)
	}
	opts := faultinject.TrialOpts{Cells: *cells, KeepEvents: true, TraceCap: 1 << 16}

	if *scenario >= 0 {
		os.Exit(runSingle(faultinject.Scenario(*scenario), *trial, opts, *topN))
	}

	start := time.Now()
	var rows []scenarioAudit
	for _, s := range faultinject.AllScenarios() {
		n := s.DefaultTests()
		if *trials > 0 {
			n = *trials
		}
		rows = append(rows, auditScenario(s, n, opts))
	}

	total, agreements := 0, 0
	var disagreements []string
	var totalEvents int64
	var totalDropped uint64
	for _, row := range rows {
		total += row.Tests
		agreements += row.Agree
		totalEvents += row.Events
		totalDropped += row.DroppedEvents
		for _, t := range row.Trials {
			if !t.Agree {
				disagreements = append(disagreements, fmt.Sprintf(
					"%s trial %d: harness detected=%v contained=%v, trace detected=%v contained=%v (%s)",
					row.Name, t.Trial, t.HarnessDetected, t.HarnessContained,
					t.Audit.Detected, t.Audit.Contained,
					strings.Join(t.Audit.Evidence, "; ")))
			}
		}
	}
	allAgree := agreements == total

	if *jsonOut {
		report := &mortReport{
			Name:              "hivemort",
			GoVersion:         runtime.Version(),
			GOMAXPROCS:        runtime.GOMAXPROCS(0),
			Jobs:              parallel.Default().Workers(),
			TrialsPerScenario: *trials,
			Cells:             *cells,
			Scenarios:         rows,
			Trials:            total,
			Agreements:        agreements,
			Disagreements:     disagreements,
			AllAgree:          allAgree,
			TotalWallMs:       float64(time.Since(start).Microseconds()) / 1000,
		}
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hivemort: marshal report:", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hivemort: write report:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d trials, %.0f ms total)\n", *outPath, total, report.TotalWallMs)
		} else {
			os.Stdout.Write(enc)
		}
		if !allAgree {
			os.Exit(1)
		}
		return
	}

	// Text report. Deliberately free of worker counts and wall-clock so it
	// is byte-identical across -j.
	fmt.Printf("hivemort: audited %d trials across %d scenarios from the trace alone\n", total, len(rows))
	if totalDropped > 0 {
		fmt.Printf("WARNING: %d events dropped by ring truncation — some walks may be incomplete\n", totalDropped)
	} else {
		fmt.Printf("no ring truncation anywhere (%d events analyzed)\n", totalEvents)
	}
	fmt.Println()

	t := stats.NewTable("trace audit vs harness (per scenario)",
		"scenario", "trials", "agree", "detected", "contained", "escapes", "rejoins", "events", "dropped")
	for _, row := range rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%d", row.Tests), fmt.Sprintf("%d", row.Agree),
			fmt.Sprintf("%d", row.Detected), fmt.Sprintf("%d", row.Contained),
			fmt.Sprintf("%d", row.Escapes), fmt.Sprintf("%d", row.Rejoins),
			fmt.Sprintf("%d", row.Events), fmt.Sprintf("%d", row.DroppedEvents))
	}
	fmt.Print(t.String())
	fmt.Println()

	// Rejoin section: the availability loop as re-derived from the traces
	// alone. A rejoined cell's later death must audit as a new fault, so
	// the agree column above already covers the attribution property; this
	// section surfaces how often the loop closed.
	if anyRejoins := func() bool {
		for _, row := range rows {
			if row.Rejoins > 0 {
				return true
			}
		}
		return false
	}(); anyRejoins {
		fmt.Println("availability loop (join-round commits seen in the traces):")
		for _, row := range rows {
			if !faultinject.Scenario(row.Scenario).RebootLoop() {
				continue
			}
			fmt.Printf("  %-48s %d trial(s), %d rejoin commit(s)\n",
				row.Name, row.Tests, row.Rejoins)
		}
		fmt.Println()
	}

	exemplar := faultinject.AllScenarios()[0]
	fmt.Printf("exemplar forensics — %s, trial 0:\n\n", exemplar)
	tr := faultinject.RunTrialOpts(exemplar, 0, opts)
	fmt.Print(forensic.Analyze(tr.Events, tr.Dropped).Format(*topN))
	fmt.Println()

	if allAgree {
		fmt.Println("The trace-derived verdicts agree with the harness on every trial.")
	} else {
		for _, d := range disagreements {
			fmt.Fprintf(os.Stderr, "DISAGREEMENT %s\n", d)
		}
		fmt.Println("TRACE/HARNESS DISAGREEMENTS OCCURRED — see above.")
		os.Exit(1)
	}
}

// auditScenario runs a scenario's trials, auditing each inside its worker
// so the (large) event stream is dropped before the next trial's arrives.
func auditScenario(s faultinject.Scenario, tests int, opts faultinject.TrialOpts) scenarioAudit {
	trials := parallel.Map(parallel.Default(), tests, func(i int) trialAudit {
		tr := faultinject.RunTrialOpts(s, i, opts)
		rep := forensic.Analyze(tr.Events, tr.Dropped)
		ta := trialAudit{
			Trial:            i,
			Seed:             tr.Seed,
			TargetCell:       tr.TargetCell,
			HarnessDetected:  tr.Detected,
			HarnessContained: tr.Contained,
			Audit:            rep.Audit,
			Events:           len(tr.Events),
		}
		for _, d := range tr.Dropped {
			ta.DroppedEvents += d.Total()
		}
		ta.Agree = ta.Audit.Detected == tr.Detected && ta.Audit.Contained == tr.Contained
		return ta
	})
	row := scenarioAudit{Scenario: int(s), Name: s.String(), Tests: tests, Trials: trials}
	for _, t := range trials {
		if t.Agree {
			row.Agree++
		}
		if t.Audit.Detected {
			row.Detected++
		}
		if t.Audit.Contained {
			row.Contained++
		}
		row.Escapes += len(t.Audit.Escapes)
		row.Rejoins += len(t.Audit.Rejoined)
		row.Events += int64(t.Events)
		row.DroppedEvents += t.DroppedEvents
	}
	return row
}

// runSingle prints the full forensic report for one trial and the
// harness cross-check; exit status 1 on disagreement.
func runSingle(s faultinject.Scenario, trial int, opts faultinject.TrialOpts, topN int) int {
	tr := faultinject.RunTrialOpts(s, trial, opts)
	rep := forensic.Analyze(tr.Events, tr.Dropped)
	fmt.Printf("%s trial %d (seed %d, target cell %d):\n\n", s, trial, tr.Seed, tr.TargetCell)
	fmt.Print(rep.Format(topN))
	fmt.Println()
	agree := rep.Audit.Detected == tr.Detected && rep.Audit.Contained == tr.Contained
	fmt.Printf("harness: detected=%v contained=%v integrity=%v check=%v state=%v\n",
		tr.Detected, tr.Contained, tr.IntegrityOK, tr.CorrectRunOK, tr.StateOK)
	if tr.Notes != "" {
		fmt.Printf("harness notes: %s\n", tr.Notes)
	}
	if !agree {
		fmt.Printf("DISAGREEMENT: trace says detected=%v contained=%v\n",
			rep.Audit.Detected, rep.Audit.Contained)
		return 1
	}
	fmt.Println("trace and harness agree.")
	return 0
}
