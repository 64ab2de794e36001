package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wax"
	"repro/internal/workload"
)

// Seeds. The reference digests below were recorded at defaultSeed; the
// held-out seed is the second seed every perf claim must also hold on
// (fail_frac 0 there, no reference digest).
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// referenceDigest is the digest of each workload's user-visible simulated
// results at defaultSeed on the unmodified model, one per phase (iteration
// it runs phase it % phases). A change that only speeds up the simulator
// must leave these bit-identical.
var referenceDigest = map[string][]string{
	"pmake":    {"10b3d652952cdb0c"},
	"frontend": {"cc26d0258b10a3cf"},
	"campaign": {"997a49cc790a5550", "4a665b4743dac9d6", "4a4dcb02b151a99c", "3de51c22189189cb",
		"5b76a54f97261344", "d2c64d6f1cef04f9", "ecb8dda15f7d6e69", "7f2c850d0ff4d687"},
}

// campaignPhases is how many distinct trial sets the campaign cycles
// through. Trials differ widely in simulated and host time, so one fixed
// set per run would make the run's figures hinge on the seed's picks;
// rotating spreads each run over up to campaignPhases trials per scenario.
const campaignPhases = 8

// bootSpan names the span around each hive boot.
const bootSpan = "BootHiveWith"

// cells is the hive size every workload boots: the paper's 4-cell machine.
const cells = 4

// iterResult is one closed-loop iteration's measurements and checks.
type iterResult struct {
	iter       int     // iteration number within the run
	phase      int     // which of the workload's phases it ran
	setupS     float64 // host s of the set-up calls (boot, plus Wax for frontend)
	hostS      float64 // host s of the timed calls
	cpuS       float64 // host CPU s (user+sys, all threads) over the timed calls
	vsec       float64 // virtual s the simulated machine advanced in the timed calls
	attempted  int
	failed     int // attempts that failed an invariant check
	digest     string
	problems   []string
	layer      map[string]float64 // per-layer counters and quantiles
	spans      []span
	trialHostS float64 // campaign: sum of per-trial host s
}

// inputs is everything a workload derives from the benchmark seed.
type inputs struct {
	bootSeed   int64
	feSeed     uint64
	setupSeeds []int64 // campaign: the stand-alone boots timed as set-up
	trials     [][]int // campaign: trial index per phase and scenario
}

func deriveInputs(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{bootSeed: rng.Int63(), feSeed: rng.Uint64()}
	scen := faultinject.AllScenarios()
	offsets := make([]int, len(scen))
	for i, s := range scen {
		offsets[i] = rng.Intn(s.DefaultTests())
	}
	for i := 0; i < 10; i++ {
		in.setupSeeds = append(in.setupSeeds, rng.Int63())
	}
	// Phase p starts each scenario's trials at the seed's offset and steps
	// by the van der Corput fraction of p (0, 1/2, 1/4, 3/4, ...), so
	// however many phases a run gets through, its trials are spread evenly
	// over each scenario's DefaultTests.
	for p := 0; p < campaignPhases; p++ {
		row := make([]int, len(scen))
		for i, s := range scen {
			n := s.DefaultTests()
			row[i] = (offsets[i] + int(vanDerCorput(p)*float64(n))) % n
		}
		in.trials = append(in.trials, row)
	}
	return in
}

// vanDerCorput is the base-2 radical inverse of p: p's binary digits
// mirrored about the point, in [0, 1).
func vanDerCorput(p int) float64 {
	v, w := 0.0, 0.5
	for ; p > 0; p >>= 1 {
		if p&1 == 1 {
			v += w
		}
		w /= 2
	}
	return v
}

// workloadDef is one benchmark workload: an optional one-time set-up
// (returning each set-up's host seconds) and a closed-loop iteration.
type workloadDef struct {
	name string
	// procs, when set, is the GOMAXPROCS the workload runs at instead of
	// the Go default (one per CPU). See README.md, "Host shape".
	procs int
	// phases is how many distinct iterations the workload cycles through
	// (1: every iteration simulates the same thing).
	phases int
	setup  func(b *bench) []float64
	iter   func(b *bench, it, phase int) *iterResult
}

var workloads = []workloadDef{
	{name: "pmake", procs: 1, phases: 1, iter: (*bench).pmakeIter},
	{name: "frontend", procs: 1, phases: 1, iter: (*bench).frontendIter},
	{name: "campaign", phases: campaignPhases, setup: (*bench).campaignSetup, iter: (*bench).campaignIter},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want pmake, frontend or campaign)", name)
}

// bench carries one run's inputs and campaign runner.
type bench struct {
	in      inputs
	workers int
	runner  *parallel.Runner
}

// digestOf hashes a canonical rendering of simulated results.
func digestOf(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pmakeIter boots a healthy 4-cell hive (set-up), runs the parallel make
// and re-reads its outputs (timed).
func (b *bench) pmakeIter(it, _ int) *iterResult {
	r := &iterResult{attempted: 1}
	var h *core.Hive
	boot := timed(bootSpan, it, 0, func() { h = workload.BootHiveWith(cells, b.in.bootSeed, nil) })
	before, v0, cpu0 := snapCounters(h, nil), h.Now(), cpuSeconds()
	var res *workload.Result
	var bad int
	var report []string
	run := timed("RunPmake", it, 0, func() { res = workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second) })
	verify := timed("VerifyOutputs", it, 0, func() { bad, report = workload.VerifyOutputs(h, res) })
	r.cpuS = cpuSeconds() - cpu0
	r.vsec = (h.Now() - v0).Seconds()
	r.setupS = boot.dur().Seconds()
	r.hostS = run.dur().Seconds() + verify.dur().Seconds()
	r.spans = []span{boot, run, verify}
	r.layer = layerCounters(before, snapCounters(h, nil))
	for k, v := range latencyQuantiles(h) {
		r.layer[k] = v
	}

	switch {
	case !res.Done:
		r.problems = append(r.problems, "pmake did not finish")
	case bad != 0:
		r.problems = append(r.problems, fmt.Sprintf("VerifyOutputs: %d bad outputs: %v", bad, report))
	case len(res.Errors) != 0:
		r.problems = append(r.problems, fmt.Sprintf("pmake errors: %v", res.Errors))
	}
	r.digest = digestOf(fmt.Sprintf("pmake elapsed=%d hits=%d remote=%d", res.Elapsed, res.FaultHits, res.RemoteFaults))
	return r
}

// frontendIter boots a healthy hive and supervises Wax over it (set-up),
// then runs the default 1x frontend (timed).
func (b *bench) frontendIter(it, _ int) *iterResult {
	r := &iterResult{attempted: 1}
	var h *core.Hive
	var sup *wax.Supervisor
	boot := timed(bootSpan, it, 0, func() { h = workload.BootHiveWith(cells, b.in.bootSeed, nil) })
	superv := timed("wax.Supervise", it, 0, func() { sup = wax.Supervise(h) })
	waxReg := func() *stats.Registry { return sup.Cur.Metrics }
	before, v0, cpu0 := snapCounters(h, waxReg()), h.Now(), cpuSeconds()
	cfg := workload.DefaultFrontend()
	cfg.Seed = b.in.feSeed
	var res *workload.Result
	var fe *workload.FrontendResult
	run := timed("RunFrontend", it, 0, func() { res, fe = workload.RunFrontend(h, cfg, 60*sim.Second) })
	r.cpuS = cpuSeconds() - cpu0
	r.vsec = (h.Now() - v0).Seconds()
	r.layer = layerCounters(before, snapCounters(h, waxReg()))
	sup.Stop()
	r.setupS = boot.dur().Seconds() + superv.dur().Seconds()
	r.hostS = run.dur().Seconds()
	r.spans = []span{boot, superv, run}
	for k, v := range latencyQuantiles(h) {
		r.layer[k] = v
	}

	r.problems = frontendProblems(res, fe)
	r.digest = digestOf(fmt.Sprintf("frontend offered=%d shed=%d completed=%d good=%d p50=%v p99=%v p999=%v",
		fe.Offered, fe.Shed, fe.Completed, fe.Good, fe.Latency.P50, fe.Latency.P99, fe.Latency.P999))
	return r
}

// frontendProblems checks a healthy-hive frontend run: it finished, nothing
// failed to fork or was lost, and the offered / issued / completed / lost /
// shed accounting balances in total and per tenant.
func frontendProblems(res *workload.Result, fe *workload.FrontendResult) []string {
	var p []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			p = append(p, fmt.Sprintf(format, args...))
		}
	}
	var tIssued, tDone int64
	for i := range fe.TenantIssued {
		tIssued += fe.TenantIssued[i]
		tDone += fe.TenantDone[i]
	}
	check(res.Done, "frontend did not finish")
	check(len(res.Errors) == 0, "frontend errors: %v", res.Errors)
	check(fe.ForkErrs == 0, "fork errors: %d", fe.ForkErrs)
	check(fe.Lost == 0 && fe.Degraded == 0, "lost %d, degraded %d on a healthy hive", fe.Lost, fe.Degraded)
	check(fe.Offered == fe.Issued+fe.Shed+fe.ForkErrs, "offered %d != issued %d + shed %d + fork errors %d",
		fe.Offered, fe.Issued, fe.Shed, fe.ForkErrs)
	check(fe.Issued == fe.Completed+fe.Lost, "issued %d != completed %d + lost %d", fe.Issued, fe.Completed, fe.Lost)
	check(fe.Good <= fe.Completed && fe.Latency.N == int64(fe.Completed),
		"good %d, latency samples %d, completed %d", fe.Good, fe.Latency.N, fe.Completed)
	check(tIssued == int64(fe.Issued) && tDone == int64(fe.Completed),
		"per-tenant issued %d / done %d vs %d / %d", tIssued, tDone, fe.Issued, fe.Completed)
	check(fe.Offered > 0, "no arrivals")
	return p
}

// campaignSetup times the 4-cell boot every trial pays, stand-alone, before
// the first trial (RunTrial boots inside the trial, where it cannot be
// timed apart).
func (b *bench) campaignSetup() []float64 {
	var out []float64
	for _, seed := range b.in.setupSeeds {
		start := time.Now()
		workload.BootHiveWith(cells, seed, nil)
		out = append(out, time.Since(start).Seconds())
	}
	return out
}

// trialOut is one trial's result and span, returned through parallel.Map.
type trialOut struct {
	res  *faultinject.TrialResult
	span span
}

// campaignIter runs one trial of every scenario, those of the given
// phase, fanned across the runner's workers.
func (b *bench) campaignIter(it, phase int) *iterResult {
	scen := faultinject.AllScenarios()
	trials := b.in.trials[phase]
	r := &iterResult{attempted: len(scen)}
	cpu0 := cpuSeconds()
	start := time.Now()
	outs := parallel.Map(b.runner, len(scen), func(i int) trialOut {
		var res *faultinject.TrialResult
		sp := timed("RunTrial", it, 1+int(scen[i]), func() { res = faultinject.RunTrial(scen[i], trials[i]) })
		return trialOut{res, sp}
	})
	r.hostS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu0

	var text []byte
	for i, o := range outs {
		res := o.res
		r.spans = append(r.spans, o.span)
		r.trialHostS += o.span.dur().Seconds()
		// Virtual time to the end of recovery: the part of each trial's
		// run TrialResult exposes.
		r.vsec += res.InjectedAt.Seconds() + (res.DetectMs+res.RecoveryMs)/1e3
		if !res.OK() {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%v trial %d: not contained (%s)", scen[i], trials[i], res.Notes))
		}
		text = fmt.Appendf(text, "s=%d trial=%d detect=%v recovery=%v restore=%v rejoins=%d\n",
			scen[i], trials[i], res.DetectMs, res.RecoveryMs, res.RestoreMs, res.Rejoins)
	}
	r.digest = digestOf(string(text))
	return r
}
