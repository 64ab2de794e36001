package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineEventsPerSec measures wall-clock event throughput on the
// mix the Hive kernels actually generate: plain timers (Sleep), timeouts
// that expire (BlockTimeout), and timeouts that are cancelled by an early
// wake — the pattern of every RPC call. The events/sec metric is the upper
// bound on how much virtual time the full simulation can cover per second
// of real time.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var worker *Task
	worker = e.Go("worker", func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Sleep(10)            // timer that fires
			if t.BlockTimeout(5) { // timeout that expires
				_ = i
			}
		}
	})
	e.Go("waker", func(t *Task) {
		// Every 40ns wake the worker if it is parked: some BlockTimeouts
		// get cancelled early, exercising the lazy-cancel path.
		for !worker.Done() {
			t.Sleep(40)
			worker.WakeSoon()
		}
	})
	start := time.Now()
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		// ~3 dispatched events per iteration (sleep wake, timeout, waker).
		b.ReportMetric(3*float64(b.N)/el, "events/sec")
	}
}

// BenchmarkEventCancel measures the schedule-then-cancel cycle that every
// completed-in-time RPC performs on its timeout timer.
func BenchmarkEventCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("driver", func(t *Task) {
		for i := 0; i < b.N; i++ {
			ev := e.After(1000, func() {})
			ev.Cancel()
			t.Sleep(1) // drain so the heap stays small
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkPendingCount measures Engine.Pending with a deep event queue —
// the probe RunUntil-style drivers issue every step.
func BenchmarkPendingCount(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.At(Time(1000+i), func() {})
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += e.Pending()
	}
	if n == 0 {
		b.Fatal("no pending events")
	}
}

// BenchmarkTaskChurn measures task creation and exit — the removeLive path
// that fires once per process, RPC service task, and interrupt thread.
func BenchmarkTaskChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const liveSet = 256 // long-lived tasks, as in a booted 4-cell Hive
	for i := 0; i < liveSet; i++ {
		e.Go("resident", func(t *Task) { t.Block() })
	}
	e.Go("driver", func(t *Task) {
		for i := 0; i < b.N; i++ {
			done := false
			e.Go("ephemeral", func(t2 *Task) { done = true })
			for !done {
				t.Sleep(1)
			}
		}
	})
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkTaskSwitch measures a park/wake round trip: one task sleeping
// in a loop, each sleep an engine-owned wake event plus a switch into the
// task's coroutine and back. Run it at -cpu 1, as the pmake and frontend
// workloads run.
func BenchmarkTaskSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("ping", func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Sleep(10)
		}
	})
	b.ResetTimer()
	e.Run(0)
}
