// Package benchcmp compares two hivebench -json reports for exact
// equality. It is the library behind `make bench-gate`: the committed
// BENCH_hive.json (generated at -j 1) is the baseline, a freshly
// generated report (at -j 8) is the candidate, and any deterministic
// metric that differs fails the gate — so one check covers both
// regressions and worker-count identity.
//
// Only the experiments' metrics maps participate: they derive from
// virtual time and event counts, so on a healthy tree they are identical
// run to run and at any -j, and any difference is a real behavior
// change. Report and Experiment carry no other fields, so wall-clock
// values (wall_ms, total_wall_ms, the info maps) and run-shape fields
// (jobs, gomaxprocs) are never even decoded.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Report is the subset of the hivebench -json document the gate reads.
type Report struct {
	Name        string       `json:"name"`
	Quick       bool         `json:"quick"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one experiment's entry in a report.
type Experiment struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// Load reads and parses a report file.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("benchcmp: parse %s: %w", path, err)
	}
	return &r, nil
}

// Result is the outcome of one comparison. Failures make the gate exit
// nonzero; warnings (new experiments or metrics not in the baseline) are
// informational — they mean the baseline needs a refresh, not that the
// tree regressed.
type Result struct {
	Failures []string
	Warnings []string
	Compared int // metrics checked against the baseline
}

// OK reports whether the candidate passed the gate.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// Compare checks the candidate report against the baseline. A metric
// fails when its value differs from the baseline's at all: the numbers
// come from a deterministic simulation, so there is no noise for a
// tolerance to absorb. Experiments or metrics present in the baseline
// but missing from the candidate fail (the bench lost coverage); ones
// only in the candidate warn. Reports generated at different -quick
// settings are not comparable and fail outright.
func Compare(baseline, candidate *Report) *Result {
	res := &Result{}
	if baseline.Quick != candidate.Quick {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"quick-mode mismatch: baseline quick=%v, candidate quick=%v (regenerate with matching flags)",
			baseline.Quick, candidate.Quick))
		return res
	}

	candExps := make(map[string]Experiment, len(candidate.Experiments))
	for _, e := range candidate.Experiments {
		candExps[e.ID] = e
	}
	baseIDs := make(map[string]bool, len(baseline.Experiments))

	for _, be := range baseline.Experiments {
		baseIDs[be.ID] = true
		ce, ok := candExps[be.ID]
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"experiment %q: in baseline but missing from candidate", be.ID))
			continue
		}
		for _, name := range sortedKeys(be.Metrics) {
			base := be.Metrics[name]
			cand, ok := ce.Metrics[name]
			if !ok {
				res.Failures = append(res.Failures, fmt.Sprintf(
					"%s/%s: in baseline but missing from candidate", be.ID, name))
				continue
			}
			res.Compared++
			if cand != base {
				res.Failures = append(res.Failures, fmt.Sprintf(
					"%s/%s: baseline %v, candidate %v", be.ID, name, base, cand))
			}
		}
		for _, name := range sortedKeys(ce.Metrics) {
			if _, ok := be.Metrics[name]; !ok {
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"%s/%s: new metric not in baseline (refresh with `make bench-report`)", be.ID, name))
			}
		}
	}
	for _, ce := range candidate.Experiments {
		if !baseIDs[ce.ID] {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"experiment %q: new, not in baseline (refresh with `make bench-report`)", ce.ID))
		}
	}
	return res
}

// sortedKeys returns the map's keys in sorted order so failure lists are
// stable across runs.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
