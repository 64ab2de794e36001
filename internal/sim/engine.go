// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which the machine model and the
// Hive kernels execute: simulated time is virtual (nanoseconds), concurrency
// is cooperative (exactly one task or event callback runs at a time), and
// every run with the same seed and inputs produces the same event order.
//
// The engine plays the role SimOS played for the original Hive work: it lets
// "kernel" code written in ordinary blocking style (RPCs, lock waits, disk
// I/O) execute against a virtual clock.
//
// Engines are fully self-contained: two engines share no state, so
// independent simulations may run concurrently on separate OS threads
// (see internal/parallel) with bit-identical per-engine results.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since boot.
type Time int64

// Duration aliases for readability when building latency models.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time as a human-readable duration.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a float64 number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Engine is a discrete-event simulator. All mutation happens on a single
// logical thread: either the engine loop itself (running event callbacks) or
// the one task the engine has handed control to. No locking is required in
// simulation code.
type Engine struct {
	now        Time
	events     eventHeap
	nLive      int // scheduled, non-cancelled events (cancellation is lazy)
	free       []*Event
	seq        uint64
	rng        *rand.Rand
	cur        *Task
	live       []*Task // all non-done tasks, for deadlock diagnostics
	nTasks     int
	stopped    bool
	failure    any    // panic value escaped from a task
	dispatched uint64 // total events fired since boot

	// Trace, if non-nil, receives a line for every dispatched event.
	// Used by determinism tests and debugging.
	Trace func(at Time, what string)
}

// NewEngine returns an engine with virtual time 0 and a PRNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG. It must only be used from
// simulation context (tasks or event callbacks) to preserve determinism.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// schedule inserts an event at absolute time t (clamped to now), drawing
// from the freelist when possible.
func (e *Engine) schedule(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{engine: e, at: t, seq: e.seq, fn: fn, index: -1}
	} else {
		ev = &Event{engine: e, at: t, seq: e.seq, fn: fn, index: -1}
	}
	e.events.push(ev)
	e.nLive++
	return ev
}

// atOwned schedules an engine-owned event: the pointer is never handed to
// simulation code, so the engine recycles it through the freelist as soon
// as it fires. All internal timers (task wakes, sleeps) go through here.
func (e *Engine) atOwned(t Time, fn func()) *Event {
	ev := e.schedule(t, fn)
	ev.owned = true
	return ev
}

// recycle puts a dead event (not in the heap, no outstanding references)
// back on the freelist.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// release relinquishes the caller's reference to an event that has either
// fired or been cancelled. If it already left the heap it is recycled now;
// if it is still queued (lazily cancelled) the pop path reclaims it.
func (e *Engine) release(ev *Event) {
	if ev.index >= 0 {
		ev.owned = true
		return
	}
	if !ev.owned { // owned events are recycled by the dispatch loop
		e.recycle(ev)
	}
}

// At schedules fn to run at absolute virtual time t (clamped to now). The
// returned Event stays valid indefinitely: it is never recycled, so Cancel,
// Reschedule, and Pending are safe at any later point.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.schedule(t, fn)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop halts the engine loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run processes events until the queue is empty, the deadline passes, or
// Stop is called. A deadline of 0 means run until idle. It panics if a task
// panicked (propagating the original value) and returns the final time.
func (e *Engine) Run(deadline Time) Time {
	for !e.stopped && len(e.events) > 0 {
		ev := e.events[0]
		if ev.cancelled { // lazily-cancelled: discard without firing
			e.events.pop()
			if ev.owned {
				e.recycle(ev)
			}
			continue
		}
		if deadline > 0 && ev.at > deadline {
			e.now = deadline
			break
		}
		e.events.pop()
		e.nLive--
		e.dispatched++
		e.now = ev.at
		fn, owned := ev.fn, ev.owned
		fn()
		if owned {
			e.recycle(ev)
		}
		if e.failure != nil {
			panic(e.failure)
		}
	}
	if deadline > 0 && e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// Step processes a single event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.cancelled {
			if ev.owned {
				e.recycle(ev)
			}
			continue
		}
		e.nLive--
		e.dispatched++
		e.now = ev.at
		fn, owned := ev.fn, ev.owned
		fn()
		if owned {
			e.recycle(ev)
		}
		if e.failure != nil {
			panic(e.failure)
		}
		return true
	}
	return false
}

// Dispatched returns the total number of events fired since boot — the
// deterministic work measure the scaling suite reports as events/sec.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Pending returns the number of scheduled (non-cancelled) events. It is
// O(1): the engine keeps the count current across push, pop, and cancel.
func (e *Engine) Pending() int { return e.nLive }

// LiveTasks returns the number of tasks that have been started and have not
// yet finished.
func (e *Engine) LiveTasks() int { return e.nTasks }

// StuckTasks returns the names of live tasks that are parked with no pending
// wake event; useful when diagnosing a simulated deadlock after Run returns
// with live tasks remaining.
func (e *Engine) StuckTasks() []string {
	var names []string
	for _, t := range e.live {
		if !t.done && t.parked {
			names = append(names, t.name)
		}
	}
	sort.Strings(names)
	return names
}

// DumpState returns a human-readable snapshot for debugging.
func (e *Engine) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v events=%d tasks=%d\n", e.now, e.Pending(), e.nTasks)
	for _, t := range e.live {
		if !t.done {
			fmt.Fprintf(&b, "  task %q parked=%v killed=%v\n", t.name, t.parked, t.killed)
		}
	}
	return b.String()
}

// Event is a scheduled callback. Events may be cancelled or rescheduled
// before they fire; both are used to model interrupt time-stealing.
type Event struct {
	engine    *Engine
	at        Time
	seq       uint64
	fn        func()
	index     int
	cancelled bool
	owned     bool // engine-owned: recycled once it leaves the heap
}

// When returns the time the event is scheduled to fire.
func (ev *Event) When() Time { return ev.at }

// Cancel prevents the event from firing. It reports whether the event was
// still pending. Cancellation is lazy: the event stays in the queue and is
// discarded when it reaches the front, so Cancel is O(1) instead of the
// O(log n) heap splice it used to be.
func (ev *Event) Cancel() bool {
	if ev.cancelled || ev.index < 0 {
		ev.cancelled = true
		return false
	}
	ev.cancelled = true
	e := ev.engine
	e.nLive--
	// Amortized cleanup: when over half the queue is cancelled garbage,
	// rebuild it so pushes stay O(log live) rather than O(log total).
	if len(e.events) >= 64 && e.nLive < len(e.events)/2 {
		e.compact()
	}
	return true
}

// Reschedule moves a still-pending event to a new absolute time. It reports
// whether the event was still pending (a fired or cancelled event cannot be
// rescheduled).
func (ev *Event) Reschedule(t Time) bool {
	if ev.cancelled || ev.index < 0 {
		return false
	}
	if t < ev.engine.now {
		t = ev.engine.now
	}
	ev.at = t
	ev.engine.events.fix(ev.index)
	return true
}

// Pending reports whether the event is still scheduled.
func (ev *Event) Pending() bool { return !ev.cancelled && ev.index >= 0 }

// compact drops cancelled events from the queue and re-establishes the heap
// invariant. O(n), amortized against the cancellations that triggered it.
func (e *Engine) compact() {
	keep := e.events[:0]
	for _, ev := range e.events {
		if ev.cancelled {
			ev.index = -1
			if ev.owned {
				e.recycle(ev)
			}
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(e.events); i++ {
		e.events[i] = nil
	}
	for i, ev := range keep {
		ev.index = i
	}
	e.events = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i)
	}
}

// eventHeap is a binary min-heap of events ordered by (time, sequence),
// giving FIFO order among simultaneous events — the property that makes
// runs deterministic. Every event in it knows its position (index), which
// Reschedule and compact rely on; one that has left it has index -1. Its
// methods are typed rather than container/heap's interface calls because
// heap upkeep is on the path of every dispatched event.
type eventHeap []*Event

// before reports whether a fires before b: earlier time, then earlier
// sequence. Sequence numbers are unique, so the order is total.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	ev := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	ev.index = -1
	return ev
}

// fix restores the heap order after the event at i changed its time.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up moves the event at i toward the root until its parent fires first.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down moves the event at i toward the leaves until both children fire
// after it, reporting whether it moved.
func (h eventHeap) down(i int) bool {
	n := len(h)
	ev := h[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}
