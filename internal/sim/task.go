package sim

import "fmt"

// killedPanic is thrown inside a task goroutine when the task is killed
// (e.g. its processor's node suffered a fail-stop fault). It unwinds the
// task's stack, running deferred cleanup, and is swallowed by the task
// wrapper.
type killedPanic struct{ name string }

// String names the sentinel for diagnostics.
func (k killedPanic) String() string { return "task killed: " + k.name }

// taskFailure wraps a genuine panic escaping task code so the engine can
// re-raise it on the caller's goroutine.
type taskFailure struct {
	name string
	val  any
}

// Task is a simulated thread of control: a goroutine that runs only when the
// engine hands it the virtual CPU and that blocks by parking in virtual time.
// Kernel code, simulated user processes, interrupt service threads, and the
// Wax policy process are all Tasks.
type Task struct {
	eng      *Engine
	name     string
	resume   chan struct{}
	yield    chan struct{}
	done     bool
	parked   bool
	started  bool
	killed   bool
	timedOut bool
	liveIdx  int // position in eng.live, for O(1) removal on exit

	// Data lets subsystems attach context (e.g. the owning cell) without
	// threading extra parameters everywhere.
	Data any

	// OnKill callbacks run (in engine context) after the task has been
	// killed and unwound; used to release simulated resources.
	onKill []func()
}

// Go starts fn as a new task named name. The task begins running at the
// current virtual time (after already-scheduled events for this instant).
func (e *Engine) Go(name string, fn func(t *Task)) *Task {
	t := &Task{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.nTasks++
	t.liveIdx = len(e.live)
	e.live = append(e.live, t)
	go func() {
		<-t.resume // wait for first dispatch
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					t.eng.failure = taskFailure{name: t.name, val: r}
				}
			}
			t.done = true
			t.eng.nTasks--
			for _, f := range t.onKill {
				f()
			}
			t.yield <- struct{}{}
		}()
		if t.killed {
			panic(killedPanic{t.name})
		}
		fn(t)
	}()
	e.atOwned(e.now, func() {
		if !t.done {
			e.dispatch(t)
		}
	})
	return t
}

// dispatch hands the virtual CPU to t until it parks or finishes. It must be
// called from engine context (inside an event callback).
func (e *Engine) dispatch(t *Task) {
	prev := e.cur
	e.cur = t
	t.started = true
	if e.Trace != nil {
		e.Trace(e.now, "run "+t.name)
	}
	t.resume <- struct{}{}
	<-t.yield
	e.cur = prev
	if e.failure != nil {
		f := e.failure.(taskFailure)
		panic(fmt.Sprintf("sim: task %q panicked: %v", f.name, f.val))
	}
	if t.done {
		e.removeLive(t)
	}
}

// removeLive drops a finished task from the live set by swapping it with
// the last entry — O(1) instead of the O(n) splice it used to be. Live-set
// order is not meaningful; diagnostics that need determinism sort by name.
func (e *Engine) removeLive(t *Task) {
	i := t.liveIdx
	if i < 0 || i >= len(e.live) || e.live[i] != t {
		return
	}
	last := len(e.live) - 1
	e.live[i] = e.live[last]
	e.live[i].liveIdx = i
	e.live[last] = nil
	e.live = e.live[:last]
	t.liveIdx = -1
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Engine returns the engine the task runs on.
func (t *Task) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.eng.now }

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.done }

// Killed reports whether the task has been killed.
func (t *Task) Killed() bool { return t.killed }

// park suspends the task until another party calls wake. Must be called from
// the task's own goroutine while it holds the virtual CPU.
func (t *Task) park() {
	if t.killed {
		panic(killedPanic{t.name})
	}
	t.parked = true
	t.yield <- struct{}{}
	<-t.resume
	if t.killed {
		panic(killedPanic{t.name})
	}
}

// wake resumes a parked task. Must be called from engine context (an event
// callback); waking from task context goes through WakeSoon.
func (t *Task) wake(timedOut bool) {
	if t.done || !t.parked {
		return
	}
	t.parked = false
	t.timedOut = timedOut
	t.eng.dispatch(t)
}

// WakeSoon schedules the parked task to resume at the current virtual time.
// Safe to call from any simulation context. Waking a task that is not parked
// is a no-op.
func (t *Task) WakeSoon() {
	t.eng.atOwned(t.eng.now, func() { t.wake(false) })
}

// Sleep suspends the task for d nanoseconds of virtual time.
func (t *Task) Sleep(d Time) {
	if d < 0 {
		// Yield: reschedule self after simultaneous events.
		d = 0
	}
	t.eng.atOwned(t.eng.now+d, func() { t.wake(false) })
	t.park()
}

// SleepEvent suspends the task for d nanoseconds but exposes the wake event
// before parking via register, so another party may Reschedule it (interrupt
// time-stealing) while the task sleeps. The exposed event is never recycled,
// so holding the pointer past the sleep is safe.
func (t *Task) SleepEvent(d Time, register func(*Event)) {
	ev := t.eng.After(d, func() { t.wake(false) })
	if register != nil {
		register(ev)
	}
	t.park()
}

// Block parks the task indefinitely until something wakes it (via WakeSoon
// or a wait-queue). Use BlockTimeout when a bound is needed.
func (t *Task) Block() {
	t.park()
}

// BlockTimeout parks the task for at most d; it reports whether the wait
// timed out rather than being woken.
func (t *Task) BlockTimeout(d Time) (timedOut bool) {
	tev := t.eng.After(d, func() { t.wake(true) })
	t.park()
	tev.Cancel()
	tev.engine.release(tev) // this call held the only reference
	return t.timedOut
}

// Kill terminates the task: if it is parked it unwinds immediately (running
// its defers); if it is runnable it unwinds at its next suspension point.
// Safe to call from any simulation context, including the task itself.
func (t *Task) Kill() {
	if t.done || t.killed {
		return
	}
	t.killed = true
	if t == t.eng.cur {
		panic(killedPanic{t.name})
	}
	t.eng.atOwned(t.eng.now, func() {
		if t.done {
			return
		}
		if t.parked {
			t.parked = false
			t.eng.dispatch(t)
		}
	})
}

// OnKill registers fn to run (in engine context) after the task finishes or
// is killed.
func (t *Task) OnKill(fn func()) { t.onKill = append(t.onKill, fn) }
