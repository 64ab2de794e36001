package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Edge cases for the Event lifecycle under lazy cancellation and the
// engine-internal freelist: fired events, double cancels, cancel/reschedule
// interleavings, compaction, and the O(1) Pending counter.

func TestCancelAfterFiring(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.At(10, func() { fired++ })
	e.Run(0)
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	if ev.Cancel() {
		t.Error("Cancel after firing reported the event as still pending")
	}
	if ev.Pending() {
		t.Error("fired event reports Pending")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("engine Pending = %d after fire+cancel, want 0", got)
	}
	e.Run(0) // a cancelled, fired event must not fire again
	if fired != 1 {
		t.Fatalf("event re-fired after post-fire Cancel: %d", fired)
	}
}

func TestRescheduleAfterFiring(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.At(10, func() { fired++ })
	e.Run(0)
	if ev.Reschedule(100) {
		t.Error("Reschedule after firing reported success")
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired event re-fired after Reschedule: %d", fired)
	}
}

func TestDoubleCancel(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() { t.Error("cancelled event fired") })
	if !ev.Cancel() {
		t.Fatal("first Cancel reported not pending")
	}
	if ev.Cancel() {
		t.Error("second Cancel reported pending — live counter would double-decrement")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d after double cancel, want 0", got)
	}
	e.Run(0)
}

func TestCancelThenReschedule(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	if ev.Reschedule(20) {
		t.Error("Reschedule revived a cancelled event")
	}
	e.Run(0)
	if fired {
		t.Error("cancelled event fired after Reschedule attempt")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

func TestRescheduleThenCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	if !ev.Reschedule(5) {
		t.Fatal("Reschedule of a pending event failed")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel after Reschedule reported not pending")
	}
	e.Run(0)
	if fired {
		t.Error("event fired after Reschedule+Cancel")
	}
}

// TestPendingCountAcrossLifecycle walks the live counter through push,
// cancel, fire, and idle, checking it against the ground truth at each step.
func TestPendingCountAcrossLifecycle(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.At(Time(10+i), func() {}))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d after 10 schedules, want 10", got)
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending = %d after 4 cancels, want 6", got)
	}
	if !e.Step() {
		t.Fatal("Step found no event despite 6 pending")
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d after one Step, want 5", got)
	}
	e.Run(0)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Run, want 0", got)
	}
}

// TestLazyCancelStorm floods the queue with cancellations so the amortized
// compaction triggers, then checks ordering and the counter both survive.
func TestLazyCancelStorm(t *testing.T) {
	e := NewEngine(1)
	var fireOrder []Time
	const n = 500
	var doomed []*Event
	for i := 0; i < n; i++ {
		tm := Time(1000 + i)
		if i%5 == 0 { // every fifth event survives
			e.At(tm, func() { fireOrder = append(fireOrder, e.Now()) })
		} else {
			doomed = append(doomed, e.At(tm, func() { t.Error("doomed event fired") }))
		}
	}
	for _, ev := range doomed {
		ev.Cancel()
	}
	want := n / 5
	if got := e.Pending(); got != want {
		t.Fatalf("Pending = %d after storm, want %d", got, want)
	}
	e.Run(0)
	if len(fireOrder) != want {
		t.Fatalf("%d survivors fired, want %d", len(fireOrder), want)
	}
	for i := 1; i < len(fireOrder); i++ {
		if fireOrder[i] <= fireOrder[i-1] {
			t.Fatalf("fire order regressed at %d: %v then %v", i, fireOrder[i-1], fireOrder[i])
		}
	}
}

// TestCompactPreservesReschedule cancels enough events to force a compaction
// and then reschedules a survivor: its heap index must still be correct.
func TestCompactPreservesReschedule(t *testing.T) {
	e := NewEngine(1)
	fired := make(map[Time]bool)
	var survivors, doomed []*Event
	for i := 0; i < 128; i++ {
		tm := Time(1000 + i)
		ev := e.At(tm, func() { fired[e.Now()] = true })
		if i%2 == 0 {
			survivors = append(survivors, ev)
		} else {
			doomed = append(doomed, ev)
		}
	}
	// Cancel the odd half; with 128 events this crosses the compaction
	// threshold (len >= 64 and nLive < len/2 after enough cancels).
	for _, ev := range doomed {
		ev.Cancel()
	}
	if got := e.Pending(); got != len(survivors) {
		t.Fatalf("Pending = %d, want %d survivors", got, len(survivors))
	}
	// Move the last survivor to the front of the timeline.
	if !survivors[len(survivors)-1].Reschedule(1) {
		t.Fatal("Reschedule after compaction failed")
	}
	first := true
	e.Trace = func(at Time, what string) {
		_ = what
		if first {
			if at != 1 {
				t.Errorf("first dispatch at %v, want the rescheduled t=1", at)
			}
			first = false
		}
	}
	e.Run(0)
	if len(fired) != len(survivors) {
		t.Fatalf("%d events fired, want %d", len(fired), len(survivors))
	}
}

// TestPublicEventNotRecycled guards the freelist contract: an Event returned
// by At/After must stay valid (and inert) after firing even when the engine
// keeps scheduling through the freelist afterwards.
func TestPublicEventNotRecycled(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(5, func() {})
	e.Run(0)
	// Generate freelist churn: internal sleep timers are recycled.
	e.Go("churn", func(tk *Task) {
		for i := 0; i < 50; i++ {
			tk.Sleep(1)
		}
	})
	e.Run(0)
	if ev.Pending() {
		t.Error("long-fired public event claims Pending after freelist churn")
	}
	if ev.Cancel() {
		t.Error("long-fired public event claims a successful Cancel")
	}
	if ev.Reschedule(1000) {
		t.Error("long-fired public event accepted a Reschedule")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// TestBlockTimeoutStress exercises the release() path: repeated
// BlockTimeout cycles must not leak pending events or corrupt the counter,
// whether the task times out or is woken first.
func TestBlockTimeoutStress(t *testing.T) {
	e := NewEngine(7)
	var timeouts, wakes int
	var blocked *Task
	e.Go("blocker", func(tk *Task) {
		blocked = tk
		for i := 0; i < 200; i++ {
			if tk.BlockTimeout(10) {
				timeouts++
			} else {
				wakes++
			}
		}
	})
	e.Go("waker", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Sleep(25) // wakes the blocker mid-wait on some iterations
			if blocked != nil {
				blocked.WakeSoon()
			}
		}
	})
	e.Run(0)
	if timeouts+wakes != 200 {
		t.Fatalf("blocker completed %d+%d cycles, want 200", timeouts, wakes)
	}
	if timeouts == 0 || wakes == 0 {
		t.Fatalf("stress did not exercise both paths: timeouts=%d wakes=%d", timeouts, wakes)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d after stress, want 0", got)
	}
}

// TestFreelistReuseKeepsDeterminism runs the same task mix twice on fresh
// engines and asserts identical traces — the freelist must not perturb
// event ordering.
func TestFreelistReuseKeepsDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(99)
		var trace []string
		e.Trace = func(at Time, what string) {
			trace = append(trace, at.String()+" "+what)
		}
		var mu Mutex
		for i := 0; i < 4; i++ {
			e.Go("worker", func(tk *Task) {
				for j := 0; j < 20; j++ {
					mu.Lock(tk)
					tk.Sleep(Time(1 + e.Rand().Intn(5)))
					mu.Unlock(tk)
					tk.BlockTimeout(3)
				}
			})
		}
		e.Run(0)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestPropertyHeapOrderMatchesSort drives the event heap with random
// schedules, cancels (enough to trigger compact), reschedules and single
// steps, and checks every event fires in the order of a reference sort by
// (time, seq): at each Step the earliest live event, and after Run the
// remaining live events in sorted order.
func TestPropertyHeapOrderMatchesSort(t *testing.T) {
	earlier := func(a, b *Event) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	}
	compactions := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var live, fired []*Event
		remove := func(ev *Event) {
			for i, l := range live {
				if l == ev {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		for i, n := 0, 64+rng.Intn(512); i < n; i++ {
			switch op := rng.Intn(20); {
			case op < 10 || len(live) == 0:
				var ev *Event
				ev = e.At(e.Now()+Time(rng.Intn(100)), func() { fired = append(fired, ev) })
				live = append(live, ev)
			case op < 16:
				ev := live[rng.Intn(len(live))]
				queued := len(e.events)
				ev.Cancel()
				if len(e.events) < queued {
					compactions++
				}
				remove(ev)
			case op < 19:
				live[rng.Intn(len(live))].Reschedule(e.Now() + Time(rng.Intn(100)))
			default:
				first := live[0]
				for _, ev := range live[1:] {
					if earlier(ev, first) {
						first = ev
					}
				}
				if !e.Step() || fired[len(fired)-1] != first {
					return false
				}
				remove(first)
			}
		}
		want := append([]*Event(nil), live...)
		sort.SliceStable(want, func(i, j int) bool { return earlier(want[i], want[j]) })
		fired = fired[:0]
		e.Run(0)
		if len(fired) != len(want) || e.Pending() != 0 {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if compactions == 0 {
		t.Fatal("no run triggered compact")
	}
}
