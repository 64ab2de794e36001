package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/stats"
)

// runtimeMetrics are the runtime/metrics counters differenced around each
// traced iteration.
var runtimeMetrics = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readRuntime() []uint64 {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// tracer instruments the traced iterations of a --trace 1 run: a CPU
// profile, runtime/metrics deltas and a goroutine-count sampler around
// each one. Traced and untraced iterations alternate, so both see the
// same heap growth and the same host load.
type tracer struct {
	attr     *attribution
	profiles [][]byte
	rt       []uint64 // runtime metric deltas, summed
	peak     int64    // most goroutines an iteration had running above its start
	leaked   []float64
}

func newTracer() *tracer {
	return &tracer{attr: &attribution{Samples: map[string]int64{}}, rt: make([]uint64, len(runtimeMetrics))}
}

// run executes one traced iteration.
func (t *tracer) run(iter func()) error {
	var buf bytes.Buffer
	before, g0 := readRuntime(), runtime.NumGoroutine()
	sampler := startGoroutineSampler()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		sampler.stop()
		return fmt.Errorf("cpu profile: %w", err)
	}
	iter()
	pprof.StopCPUProfile()
	peak := sampler.stop()
	after := readRuntime()
	t.peak = max(t.peak, peak-int64(g0))
	t.leaked = append(t.leaked, float64(runtime.NumGoroutine()-g0))
	for i := range t.rt {
		t.rt[i] += after[i] - before[i]
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return err
	}
	t.attr.add(p)
	t.profiles = append(t.profiles, buf.Bytes())
	return nil
}

// perLayer assembles the per-layer metrics from the traced iterations.
func (t *tracer) perLayer(traced []*iterResult, workers int, campaign bool) map[string]metric {
	n := len(traced)
	ms := map[string]metric{}
	for _, bucket := range msBuckets() {
		ms[bucket] = metric{t.attr.msPerIter(bucket, n), "ms"}
	}
	for _, name := range append(append([]string{"sim.events"}, counterMetrics...), quantileMetrics...) {
		ms[name] = metric{mean(collect(traced, func(r *iterResult) float64 { return r.layer[name] })), unitOf(name)}
	}
	events := ms["sim.events"].Value
	perIter := func(i int) float64 { return float64(t.rt[i]) / float64(max(n, 1)) }
	nsPerEvent, allocsPerEvent := 0.0, 0.0
	if events > 0 {
		nsPerEvent = median(collect(traced, func(r *iterResult) float64 { return r.hostS })) * 1e9 / events
		allocsPerEvent = perIter(2) / events
	}
	ms["sim.host_ns_per_event"] = metric{nsPerEvent, "ns"}
	ms["runtime.gc_cycles"] = metric{perIter(0), "count"}
	ms["runtime.alloc_mb"] = metric{perIter(1) / (1 << 20), "MB"}
	ms["runtime.allocs_per_event"] = metric{allocsPerEvent, "count"}
	ms["runtime.goroutines_peak"] = metric{float64(t.peak), "count"}
	ms["runtime.goroutines_leaked"] = metric{median(t.leaked), "count"}
	ms["profile.attributed_frac"] = metric{t.attr.attributedFrac(), "ratio"}
	util := 0.0
	if campaign {
		util = median(collect(traced, func(r *iterResult) float64 { return r.trialHostS / (float64(workers) * r.hostS) }))
	}
	ms["parallel.utilization"] = metric{util, "ratio"}
	var boots []float64
	for _, r := range traced {
		for _, sp := range r.spans {
			if sp.Name == bootSpan {
				boots = append(boots, sp.dur().Seconds()*1e3)
			}
		}
	}
	ms["core.boot_ms"] = metric{median(boots), "ms"}
	return ms
}

// unitOf names a counter or quantile metric's unit.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, "_us_p"):
		return "us"
	}
	return "count"
}

// samplePeriod is how often the goroutine sampler polls.
const samplePeriod = 10 * time.Millisecond

// goroutineSampler polls the goroutine count every samplePeriod from a
// timer callback and keeps the peak. stats.Counter is the atomic the
// callback and the caller share.
type goroutineSampler struct {
	peak, stopped stats.Counter
	tm            *time.Timer
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{}
	g.tm = time.AfterFunc(time.Hour, func() {
		if n := int64(runtime.NumGoroutine()); n > g.peak.Value() {
			g.peak.Add(n - g.peak.Value())
		}
		if g.stopped.Value() == 0 {
			g.tm.Reset(samplePeriod)
		}
	})
	g.tm.Reset(samplePeriod)
	return g
}

// stop ends sampling and returns the peak.
func (g *goroutineSampler) stop() int64 {
	g.stopped.Inc()
	g.tm.Stop()
	return g.peak.Value()
}
