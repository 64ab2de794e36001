package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Profile buckets. Layers are the repo's modules (internal/<m>); a
// module's self time is "<m>.ms", except that sim is split in two and the
// Go runtime's own work gets buckets of its own.
const (
	bucketDispatch   = "sim.dispatch_ms"   // engine Run/Step/heap and the rest of internal/sim
	bucketTaskSwitch = "sim.taskswitch_ms" // task resume/yield (sim/task.go) and the channel ops beneath
	bucketGC         = "runtime.gc_ms"     // GC workers, mark assist, sweeping
	bucketSched      = "runtime.sched_ms"  // scheduler frames with no repo frame: mostly task handoff
	bucketHarness    = "hostbench.ms"      // the benchmark's own code
	bucketOther      = "other.ms"          // everything else (unattributed)
)

// msModules are the internal modules whose profile self time is reported
// as "<m>.ms" even when no sample lands there, so every report carries the
// same metric set.
var msModules = []string{"machine", "rpc", "fs", "vm", "proc", "sched", "wax",
	"careful", "kmem", "cow", "membership", "core", "faultinject", "trace",
	"stats", "workload"}

// counterMetrics are the per-layer work counters read from the hive's
// per-module Metrics registries, summed over cells and differenced around
// the timed calls.
var counterMetrics = []string{
	"machine.sips_sends", "machine.firewall_grants",
	"rpc.calls", "rpc.spin_timeouts", "rpc.retries", "rpc.intr_ratio",
	"fs.remote_page_fetches", "fs.opens_remote",
	"vm.faults", "vm.imports",
	"proc.spawned", "sched.switches",
	"wax.policy_rounds", "wax.hint_accept_ratio",
	"cow.remote_visits", "membership.rounds",
	"trace.ring_drops",
}

// quantileMetrics are virtual-time latency quantiles from the hive's
// histograms (over the hive's whole life, boot traffic included).
var quantileMetrics = []string{"rpc.call_us_p50", "rpc.call_us_p99", "vm.fault_us_p50", "vm.fault_us_p99"}

// gcFrames and schedFrames classify samples by runtime frames.
var (
	gcFrames = map[string]bool{"runtime.bgsweep": true, "runtime.bgscavenge": true,
		"runtime.markroot": true, "runtime.scanobject": true, "runtime.sweepone": true}
	schedFrames = map[string]bool{"runtime.schedule": true, "runtime.findRunnable": true,
		"runtime.park_m": true, "runtime.mcall": true, "runtime.goexit0": true,
		"runtime.gosched_m": true, "runtime.goschedImpl": true, "runtime.stopm": true,
		"runtime.startm": true, "runtime.wakep": true, "runtime.ready": true,
		"runtime.goready": true, "runtime.gopark": true, "runtime.casgstatus": true,
		"runtime.newproc": true, "runtime.systemstack": true}
)

// bucketOf attributes one sample stack (innermost frame first) to a named
// bucket: GC anywhere on the stack wins, then the innermost repro/internal
// frame's module, then the benchmark's own frames, then scheduler frames.
func bucketOf(funcs []profFunc) string {
	for _, f := range funcs {
		if strings.HasPrefix(f.Name, "runtime.gc") || gcFrames[f.Name] {
			return bucketGC
		}
	}
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f.Name, "repro/internal/")
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		if mod == "sim" {
			if strings.HasSuffix(f.File, "/task.go") {
				return bucketTaskSwitch
			}
			return bucketDispatch
		}
		return mod + ".ms"
	}
	for _, f := range funcs {
		if strings.HasPrefix(f.Name, "main.") {
			return bucketHarness
		}
	}
	for _, f := range funcs {
		if schedFrames[f.Name] {
			return bucketSched
		}
	}
	return bucketOther
}

// attribution is a CPU profile bucketed by layer.
type attribution struct {
	Samples  map[string]int64
	Total    int64
	PeriodNs int64
}

// add buckets one profile's samples.
func (a *attribution) add(p *cpuProfile) {
	a.PeriodNs = p.PeriodNs
	for _, s := range p.Samples {
		a.Samples[bucketOf(s.Funcs)] += s.Count
		a.Total += s.Count
	}
}

// attributedFrac is the share of samples in a named bucket.
func (a *attribution) attributedFrac() float64 {
	if a.Total == 0 {
		return 0
	}
	return 1 - float64(a.Samples[bucketOther])/float64(a.Total)
}

// msPerIter converts one bucket's samples to CPU-ms per iteration.
func (a *attribution) msPerIter(bucket string, iters int) float64 {
	return float64(a.Samples[bucket]) * float64(a.PeriodNs) / 1e6 / float64(max(iters, 1))
}

// msBuckets lists the buckets reported as per-layer metrics.
func msBuckets() []string {
	names := []string{bucketDispatch, bucketTaskSwitch, bucketGC, bucketSched, bucketHarness, bucketOther}
	for _, m := range msModules {
		names = append(names, m+".ms")
	}
	return names
}

// buckets lists msBuckets plus any other bucket with samples, sorted.
func (a *attribution) buckets() []string {
	names := msBuckets()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for b := range a.Samples {
		if !seen[b] {
			names = append(names, b)
		}
	}
	sort.Strings(names)
	return names
}

// table renders the per-layer self-time table, largest first.
func (a *attribution) table(iters int) string {
	names := a.buckets()
	sort.SliceStable(names, func(i, j int) bool { return a.Samples[names[i]] > a.Samples[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %8s %10s\n", "layer", "samples", "share", "ms/iter")
	for _, n := range names {
		share := 0.0
		if a.Total > 0 {
			share = float64(a.Samples[n]) / float64(a.Total)
		}
		fmt.Fprintf(&b, "%-20s %8d %7.1f%% %10.2f\n", n, a.Samples[n], 100*share, a.msPerIter(n, iters))
	}
	fmt.Fprintf(&b, "%-20s %8d %7.1f%%  (attributed to a named bucket)\n", "total", a.Total, 100*a.attributedFrac())
	return b.String()
}

// counterSnap is the hive's per-module registries summed over cells.
type counterSnap map[string]int64

// counterValue reads a counter without creating it in the model's registry.
func counterValue(r *stats.Registry, name string) int64 {
	for _, n := range r.CounterNames() {
		if n == name {
			return r.Counter(name).Value()
		}
	}
	return 0
}

// snapCounters reads every counter the per-layer metrics need; wax is the
// supervised incarnation's registry (nil when Wax is not running).
func snapCounters(h *core.Hive, wax *stats.Registry) counterSnap {
	s := counterSnap{
		"sips.sends":      counterValue(h.M.Metrics, "sips.sends"),
		"firewall.grants": counterValue(h.M.Metrics, "firewall.grants"),
		"trace.drops":     int64(h.Trace.TotalDropped()),
		"sim.events":      int64(h.Eng.Dispatched()),
	}
	regs := func(c *core.Cell) []*stats.Registry {
		return []*stats.Registry{c.EP.Metrics, c.FS.Metrics, c.VM.Metrics, c.Procs.Metrics,
			c.Sched.Metrics, c.COW.Metrics, c.Mon.Metrics, c.Metrics}
	}
	for _, c := range h.Cells {
		for _, r := range regs(c) {
			for _, n := range r.CounterNames() {
				s[n] += r.Counter(n).Value()
			}
		}
	}
	if wax != nil {
		s["wax.policy_rounds"] = counterValue(wax, "wax.policy_rounds")
	}
	return s
}

// layerCounters turns the difference of two snapshots into per-layer
// counter metrics.
func layerCounters(before, after counterSnap) map[string]float64 {
	d := func(n string) float64 { return float64(after[n] - before[n]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	return map[string]float64{
		"sim.events":              d("sim.events"),
		"machine.sips_sends":      d("sips.sends"),
		"machine.firewall_grants": d("firewall.grants"),
		"rpc.calls":               d("rpc.calls"),
		"rpc.spin_timeouts":       d("rpc.spin_timeouts"),
		"rpc.retries":             d("rpc.retries"),
		"rpc.intr_ratio":          ratio(d("rpc.intr_served"), d("rpc.intr_served")+d("rpc.intr_fallbacks")),
		"fs.remote_page_fetches":  d("fs.remote_page_fetches"),
		"fs.opens_remote":         d("fs.opens_remote"),
		"vm.faults":               d("vm.fault_hits") + d("vm.fault_misses"),
		"vm.imports":              d("vm.imports"),
		"proc.spawned":            d("proc.spawned"),
		"sched.switches":          d("sched.switches"),
		"wax.policy_rounds":       d("wax.policy_rounds"),
		"wax.hint_accept_ratio": ratio(d("cell.wax_hints_applied"),
			d("cell.wax_hints_applied")+d("cell.wax_hints_rejected")),
		"cow.remote_visits": d("cow.remote_visits"),
		"membership.rounds": d("membership.rounds"),
		"trace.ring_drops":  d("trace.drops"),
	}
}

// latencyQuantiles merges the cells' rpc.call_us and vm.fault_us
// histograms (virtual µs) and returns their p50/p99.
func latencyQuantiles(h *core.Hive) map[string]float64 {
	var rpcH, vmH stats.Histogram
	for _, c := range h.Cells {
		rpcH.Merge(c.EP.Metrics.Hist("rpc.call_us"))
		vmH.Merge(c.VM.Metrics.Hist("vm.fault_us"))
	}
	return map[string]float64{
		"rpc.call_us_p50": rpcH.Quantile(0.50),
		"rpc.call_us_p99": rpcH.Quantile(0.99),
		"vm.fault_us_p50": vmH.Quantile(0.50),
		"vm.fault_us_p99": vmH.Quantile(0.99),
	}
}
