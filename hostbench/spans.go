package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// rootSpan names the span that covers one whole iteration.
const rootSpan = "iteration"

// span is one timed call the benchmark made into the program. Spans from
// one iteration share Iter; Track separates concurrent trials.
type span struct {
	Name  string
	Iter  int
	Track int
	Start time.Time
	End   time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// timed runs fn and returns its span.
func timed(name string, iter, track int, fn func()) span {
	s := span{Name: name, Iter: iter, Track: track, Start: time.Now()}
	fn()
	s.End = time.Now()
	return s
}

// chromeEvent is one Chrome trace-event "complete" slice.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome exports spans as Chrome trace-event JSON (loads in
// ui.perfetto.dev), timestamps in host µs from the first span. otherData
// carries the host shape and tracing overhead.
func writeChrome(w io.Writer, spans []span, otherData map[string]any) error {
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "hostbench", Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"iter": s.Iter},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": otherData})
}

// spanSelfTimes renders each span name's self time per iteration. Every
// iteration is one "iteration" span whose children are the calls made
// inside it (leaves, possibly concurrent); the iteration's self time is
// its duration minus the union of its children's intervals.
func spanSelfTimes(spans []span, iters int) string {
	self := map[string]time.Duration{}
	count := map[string]int{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Name != rootSpan {
			self[s.Name] += s.dur()
			count[s.Name]++
			children[s.Iter] = append(children[s.Iter], s)
		}
	}
	for _, s := range spans {
		if s.Name == rootSpan {
			self[s.Name] += s.dur() - covered(children[s.Iter])
			count[s.Name]++
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s\n", "span", "count", "self ms/iter")
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %8d %12.2f\n", n, count[n], float64(self[n].Microseconds())/1e3/float64(max(iters, 1)))
	}
	return b.String()
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var end time.Time
	for _, s := range spans {
		start := s.Start
		if start.Before(end) {
			start = end
		}
		if s.End.After(start) {
			total += s.End.Sub(start)
			end = s.End
		}
	}
	return total
}
