package faultinject

import (
	"runtime"
	"testing"
	"time"
)

// TestTrialsLeaveNoGoroutines: a trial closes its engine when it ends, so
// none of the hive's tasks stays parked on a goroutine after RunTrial
// returns and the finished hive can be collected.
func TestTrialsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, s := range []Scenario{NodeFailRandom, CorruptCOWTree, CrashLoop} {
		if tr := RunTrial(s, 0); !tr.OK() {
			t.Fatalf("%s trial 0 failed: %s", s, tr.Notes)
		}
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("goroutines = %d after the trials, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
