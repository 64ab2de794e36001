package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(0)
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("cancel reported not pending")
	}
	if ev.Cancel() {
		t.Fatal("second cancel reported pending")
	}
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEventReschedule(t *testing.T) {
	e := NewEngine(1)
	var at Time
	ev := e.At(10, func() { at = e.Now() })
	if !ev.Reschedule(50) {
		t.Fatal("reschedule failed")
	}
	e.Run(0)
	if at != 50 {
		t.Fatalf("fired at %v, want 50", at)
	}
	if ev.Reschedule(80) {
		t.Fatal("reschedule of fired event succeeded")
	}
}

func TestRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(20, func() { order = append(order, "a") })
	ev := e.At(30, func() { order = append(order, "b") })
	ev.Reschedule(10)
	e.Run(0)
	if strings.Join(order, "") != "ba" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunDeadline(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(100, func() { fired = true })
	e.Run(50)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	e.Run(200)
	if !fired {
		t.Fatal("event not fired after extending deadline")
	}
}

func TestTaskSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Go("sleeper", func(tk *Task) {
		tk.Sleep(42)
		wake = tk.Now()
	})
	e.Run(0)
	if wake != 42 {
		t.Fatalf("woke at %v", wake)
	}
	if e.LiveTasks() != 0 {
		t.Fatalf("live tasks = %d", e.LiveTasks())
	}
}

func TestTaskInterleaving(t *testing.T) {
	e := NewEngine(1)
	var log []string
	e.Go("a", func(tk *Task) {
		log = append(log, "a0")
		tk.Sleep(10)
		log = append(log, "a1")
		tk.Sleep(20)
		log = append(log, "a2")
	})
	e.Go("b", func(tk *Task) {
		log = append(log, "b0")
		tk.Sleep(15)
		log = append(log, "b1")
	})
	e.Run(0)
	want := "a0 b0 a1 b1 a2"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

func TestTaskKillParked(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	var tk *Task
	tk = e.Go("victim", func(t2 *Task) {
		defer func() { cleaned = true }()
		t2.Block() // parked forever
		t.Error("victim resumed past Block")
	})
	e.At(10, func() { tk.Kill() })
	e.Run(0)
	if !cleaned {
		t.Fatal("deferred cleanup did not run")
	}
	if !tk.Done() {
		t.Fatal("task not done")
	}
}

// TestTaskKillSelf: a running task that kills itself unwinds on the spot,
// running its defers and OnKill once, while the other tasks run on and the
// engine drains.
func TestTaskKillSelf(t *testing.T) {
	e := NewEngine(1)
	defers, kills, steps := 0, 0, 0
	e.Go("suicide", func(tk *Task) {
		defer func() { defers++ }()
		tk.OnKill(func() { kills++ })
		tk.Sleep(5)
		tk.Kill()
		t.Error("task ran past its own Kill")
	})
	e.Go("bystander", func(tk *Task) {
		for i := 0; i < 4; i++ {
			tk.Sleep(3)
			steps++
		}
	})
	e.Run(0)
	if defers != 1 || kills != 1 {
		t.Fatalf("defers ran %d times, OnKill %d times; want 1 and 1", defers, kills)
	}
	if steps != 4 || e.LiveTasks() != 0 || e.Now() != 12 {
		t.Fatalf("steps=%d live=%d now=%v; want 4, 0, 12ns", steps, e.LiveTasks(), e.Now())
	}
}

// TestEngineCloseUnwindsAll leaves tasks parked in every way a finished
// run can leave them — blocked, never started, in BlockTimeout, queued on
// a mutex — and checks Close unwinds each exactly once (defers of a started
// body, OnKill of every task) and that their coroutines exit.
func TestEngineCloseUnwindsAll(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	defers := map[string]int{}
	kills := map[string]int{}
	var m Mutex
	spawn := func(name string, body func(tk *Task)) {
		tk := e.Go(name, func(tk *Task) {
			defer func() { defers[name]++ }()
			body(tk)
			t.Errorf("%s returned normally", name)
		})
		tk.OnKill(func() { kills[name]++ })
	}
	spawn("blocked", func(tk *Task) { tk.Block() })
	spawn("timeout", func(tk *Task) { tk.BlockTimeout(Second) })
	spawn("holder", func(tk *Task) { m.Lock(tk); tk.Block() })
	spawn("waiter", func(tk *Task) { tk.Sleep(1); m.Lock(tk) })
	e.Run(Millisecond)
	spawn("unstarted", func(tk *Task) {})
	if e.LiveTasks() != 5 || runtime.NumGoroutine() < base+5 {
		t.Fatalf("before Close: live=%d goroutines=%d (base %d)", e.LiveTasks(), runtime.NumGoroutine(), base)
	}
	e.Close()
	if e.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d after Close", e.LiveTasks())
	}
	for _, name := range []string{"blocked", "timeout", "holder", "waiter", "unstarted"} {
		want := 1
		if name == "unstarted" {
			want = 0 // its body never ran, so it deferred nothing
		}
		if defers[name] != want || kills[name] != 1 {
			t.Errorf("%s: defers ran %d times, OnKill %d times; want %d and 1", name, defers[name], kills[name], want)
		}
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("goroutines = %d after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTaskKillBeforeStart(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tk := e.Go("never", func(t2 *Task) { ran = true })
	tk.Kill()
	e.Run(0)
	if ran {
		t.Fatal("killed task body ran")
	}
}

func TestOnKillRuns(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.Go("t", func(t2 *Task) {
		t2.OnKill(func() { n++ })
		t2.Sleep(5)
	})
	e.Run(0)
	if n != 1 || !tk.Done() {
		t.Fatalf("onKill ran %d times", n)
	}
}

func TestBlockTimeout(t *testing.T) {
	e := NewEngine(1)
	var timedOut bool
	var at Time
	e.Go("t", func(tk *Task) {
		timedOut = tk.BlockTimeout(100)
		at = tk.Now()
	})
	e.Run(0)
	if !timedOut || at != 100 {
		t.Fatalf("timedOut=%v at=%v", timedOut, at)
	}
}

func TestBlockWokenBeforeTimeout(t *testing.T) {
	e := NewEngine(1)
	var timedOut bool
	tk := e.Go("t", func(tk *Task) {
		timedOut = tk.BlockTimeout(100)
	})
	e.At(30, func() { tk.WakeSoon() })
	e.Run(0)
	if timedOut {
		t.Fatal("reported timeout despite wake")
	}
	if e.Pending() != 0 {
		t.Fatal("timeout event not cancelled")
	}
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	var order []string
	hold := func(name string, start, d Time) {
		e.Go(name, func(tk *Task) {
			tk.Sleep(start)
			m.Lock(tk)
			order = append(order, name)
			tk.Sleep(d)
			m.Unlock(tk)
		})
	}
	hold("a", 0, 50)
	hold("b", 10, 10)
	hold("c", 20, 10)
	e.Run(0)
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q", got)
	}
	if m.Locked() {
		t.Fatal("mutex still locked")
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	e.Go("t", func(tk *Task) {
		if !m.TryLock(tk) {
			t.Error("TryLock failed on free mutex")
		}
		if m.TryLock(tk) {
			t.Error("TryLock succeeded on held mutex")
		}
		m.Unlock(tk)
	})
	e.Run(0)
}

func TestMutexForceRelease(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	acquired := false
	var holder *Task
	holder = e.Go("holder", func(tk *Task) {
		m.Lock(tk)
		tk.Block() // dies holding the lock
	})
	e.Go("waiter", func(tk *Task) {
		tk.Sleep(10)
		m.Lock(tk)
		acquired = true
		m.Unlock(tk)
	})
	e.At(20, func() {
		holder.Kill()
		m.ForceRelease()
	})
	e.Run(0)
	if !acquired {
		t.Fatal("waiter never acquired after ForceRelease")
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(2)
	maxConc, conc := 0, 0
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
			s.Acquire(tk)
			conc++
			if conc > maxConc {
				maxConc = conc
			}
			tk.Sleep(10)
			conc--
			s.Release()
		})
	}
	e.Run(0)
	if maxConc != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConc)
	}
	if s.Available() != 2 {
		t.Fatalf("available = %d", s.Available())
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := Cond{M: &m}
	ready := false
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
			m.Lock(tk)
			for !ready {
				c.Wait(tk)
			}
			woke++
			m.Unlock(tk)
		})
	}
	e.Go("signaller", func(tk *Task) {
		tk.Sleep(10)
		m.Lock(tk)
		ready = true
		c.Broadcast()
		m.Unlock(tk)
	})
	e.Run(0)
	if woke != 3 {
		t.Fatalf("woke = %d", woke)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := Cond{M: &m}
	var timedOut bool
	e.Go("w", func(tk *Task) {
		m.Lock(tk)
		timedOut = c.WaitTimeout(tk, 50)
		m.Unlock(tk)
	})
	e.Run(0)
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if len(c.waiters) != 0 {
		t.Fatal("stale waiter left behind")
	}
}

func TestFuture(t *testing.T) {
	e := NewEngine(1)
	f := &Future{}
	var got any
	e.Go("waiter", func(tk *Task) {
		got, _ = f.Wait(tk)
	})
	e.At(10, func() { f.Set(42, nil) })
	e.Run(0)
	if got != 42 {
		t.Fatalf("got %v", got)
	}
	// Second Set is a no-op.
	f.Set(99, nil)
	if v, _ := f.val, f.err; v != 42 {
		t.Fatalf("value overwritten: %v", v)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	f := &Future{}
	var ok bool
	e.Go("waiter", func(tk *Task) {
		_, _, ok = f.WaitTimeout(tk, 30)
	})
	e.Run(0)
	if ok {
		t.Fatal("expected timeout")
	}
	// Late Set after timeout must not wake anyone or panic.
	f.Set(1, nil)
}

func TestFutureWaitTimeoutSatisfied(t *testing.T) {
	e := NewEngine(1)
	f := &Future{}
	var ok bool
	var got any
	e.Go("waiter", func(tk *Task) {
		got, _, ok = f.WaitTimeout(tk, 100)
	})
	e.At(10, func() { f.Set("x", nil) })
	e.Run(0)
	if !ok || got != "x" {
		t.Fatalf("ok=%v got=%v", ok, got)
	}
}

func TestQueue(t *testing.T) {
	e := NewEngine(1)
	q := &Queue{}
	var got []any
	e.Go("consumer", func(tk *Task) {
		for {
			v, ok := q.Pop(tk)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Go("producer", func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Sleep(10)
			q.Push(i)
		}
		tk.Sleep(10)
		q.Close()
	})
	e.Run(0)
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	var wg WaitGroup
	finished := 0
	wg.Add(3)
	for i := 0; i < 3; i++ {
		d := Time(10 * (i + 1))
		e.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
			tk.Sleep(d)
			finished++
			wg.Done()
		})
	}
	var doneAt Time
	e.Go("waiter", func(tk *Task) {
		wg.Wait(tk)
		doneAt = tk.Now()
	})
	e.Run(0)
	if finished != 3 || doneAt != 30 {
		t.Fatalf("finished=%d doneAt=%v", finished, doneAt)
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(3)
	var times []Time
	for i := 0; i < 3; i++ {
		d := Time(10 * (i + 1))
		e.Go(fmt.Sprintf("p%d", i), func(tk *Task) {
			tk.Sleep(d)
			b.Await(tk)
			times = append(times, tk.Now())
		})
	}
	e.Run(0)
	if len(times) != 3 {
		t.Fatalf("len(times) = %d", len(times))
	}
	for _, tm := range times {
		if tm != 30 {
			t.Fatalf("barrier released at %v, want 30", tm)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(2)
	rounds := 0
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(tk *Task) {
			for r := 0; r < 3; r++ {
				tk.Sleep(10)
				b.Await(tk)
			}
			rounds++
		})
	}
	e.Run(0)
	if rounds != 2 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestBarrierSetParties(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(3)
	released := false
	e.Go("p0", func(tk *Task) {
		b.Await(tk)
		released = true
	})
	e.Go("p1", func(tk *Task) {
		b.Await(tk)
	})
	// Third party "fails"; shrink the barrier.
	e.At(50, func() { b.SetParties(2) })
	e.Run(0)
	if !released {
		t.Fatal("barrier never opened after SetParties")
	}
}

func TestStuckTaskDiagnostics(t *testing.T) {
	e := NewEngine(1)
	e.Go("stuck", func(tk *Task) { tk.Block() })
	e.Run(0)
	stuck := e.StuckTasks()
	if len(stuck) != 1 || stuck[0] != "stuck" {
		t.Fatalf("stuck = %v", stuck)
	}
	if !strings.Contains(e.DumpState(), "stuck") {
		t.Fatal("DumpState missing stuck task")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		e := NewEngine(7)
		var log []string
		e.Trace = func(at Time, what string) {
			log = append(log, fmt.Sprintf("%d:%s", at, what))
		}
		var m Mutex
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("t%d", i)
			e.Go(name, func(tk *Task) {
				for j := 0; j < 5; j++ {
					tk.Sleep(Time(e.Rand().Intn(100)))
					m.Lock(tk)
					tk.Sleep(Time(e.Rand().Intn(10)))
					m.Unlock(tk)
				}
			})
		}
		e.Run(0)
		return strings.Join(log, "\n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs diverged")
	}
}

func TestTaskPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(tk *Task) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("recover = %v", r)
		}
	}()
	e.Run(0)
	t.Fatal("expected panic")
}

// TestCloseAfterTaskPanic: Close on an engine whose Run re-raised a task
// panic returns quietly, so a deferred Close cannot replace that panic.
func TestCloseAfterTaskPanic(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(tk *Task) { panic("boom") })
	e.Go("parked", func(tk *Task) { tk.Block() })
	func() {
		defer func() { _ = recover() }()
		e.Run(0)
	}()
	e.Close()
}

func TestSleepEventSteal(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	var woke Time
	e.Go("computer", func(tk *Task) {
		tk.SleepEvent(100, func(x *Event) { ev = x })
		woke = tk.Now()
	})
	// At t=50 an "interrupt" steals 30ns from the computing task.
	e.At(50, func() { ev.Reschedule(ev.When() + 30) })
	e.Run(0)
	if woke != 130 {
		t.Fatalf("woke at %v, want 130", woke)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:             "500ns",
		1500:            "1.500us",
		2 * Millisecond: "2.000ms",
		3 * Second:      "3.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// Property: any interleaving of sleeps preserves per-task ordering and the
// engine clock is monotonic across all observations.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(seed int64, delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(seed)
		var last Time
		mono := true
		for i, d := range delays {
			d := Time(d)
			e.Go(fmt.Sprintf("t%d", i), func(tk *Task) {
				for j := 0; j < 3; j++ {
					tk.Sleep(d)
					if tk.Now() < last {
						mono = false
					}
					last = tk.Now()
				}
			})
		}
		e.Run(0)
		return mono
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a mutex never admits two holders at once, under random load.
func TestPropertyMutexExclusion(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := NewEngine(seed)
		var m Mutex
		inside, ok := 0, true
		for i := 0; i < int(n%16)+2; i++ {
			e.Go(fmt.Sprintf("t%d", i), func(tk *Task) {
				for j := 0; j < 4; j++ {
					tk.Sleep(Time(e.Rand().Intn(50)))
					m.Lock(tk)
					inside++
					if inside != 1 {
						ok = false
					}
					tk.Sleep(Time(e.Rand().Intn(5)))
					inside--
					m.Unlock(tk)
				}
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineEventThroughput measures raw simulator speed: how many
// scheduled events the engine dispatches per wall-clock second. This bounds
// how much virtual time the whole Hive simulation can cover.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	b.ResetTimer()
	e.Run(0)
}
