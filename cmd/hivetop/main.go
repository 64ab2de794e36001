// Command hivetop runs a workload and prints a virtual-time dashboard —
// per-cell snapshots of processes, memory pools, sharing state, and RPC
// traffic; the detection→alert→barrier1→barrier2→resume recovery timeline
// when a fault is injected; and the top latency histograms per cell. It is
// the operator's view of a running Hive.
//
// Usage:
//
//	hivetop                        # pmake on 4 cells, snapshot every 1s
//	hivetop -interval 500ms -fail 2 -failat 3s
//	hivetop -fail 2 -hist 3 -tail 20 -trace top.json
//	hivetop -fail 2 -forensic      # propagation graph + virtual-time profile
//	hivetop -fail 2 -reboot        # availability loop: reboot, rejoin, restore
//	hivetop -frontend              # open-loop multi-tenant frontend + SLO view
//	hivetop -frontend -fail 1 -reboot     # kill a cell mid-surge, watch the window
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wax"
	"repro/internal/workload"
)

func main() {
	var (
		cells      = flag.Int("cells", 4, "number of cells")
		interval   = flag.Duration("interval", time.Second, "virtual snapshot period")
		fail       = flag.Int("fail", -1, "inject a fail-stop fault into this cell")
		failAt     = flag.Duration("failat", 3*time.Second, "virtual fault time")
		seed       = flag.Int64("seed", 1995, "simulation seed")
		histRows   = flag.Int("hist", 3, "bucket rows per latency histogram (0 = none)")
		tailN      = flag.Int("tail", 12, "forensic trace tail length (0 = none)")
		tracePath  = flag.String("trace", "", "also write the Chrome trace-event JSON file")
		forensicOn = flag.Bool("forensic", false, "print the fault-propagation graph and virtual-time profile (implied by -fail)")
		reboot     = flag.Bool("reboot", false, "run the availability loop: reboot the failed cell, rejoin it, restore full capacity")
		topN       = flag.Int("top", 3, "top span names per subsystem in the -forensic profile")
		frontend   = flag.Bool("frontend", false, "run the open-loop multi-tenant frontend instead of pmake, with an SLO view")
	)
	flag.Parse()

	h := workload.BootHiveWith(*cells, *seed, func(cfg *core.Config) {
		if *tracePath != "" || *forensicOn || *fail >= 0 {
			cfg.TraceCap = 1 << 16
		}
		if *reboot {
			cfg.Reboot = core.RebootPolicy{Enabled: true}
		}
	})
	if *fail >= 0 && *fail < len(h.Cells) {
		h.Eng.At(sim.Time(failAt.Nanoseconds()), func() {
			h.Cells[*fail].FailHardware()
		})
	}

	// Periodic snapshots, printed as the simulation advances.
	var snap func()
	snap = func() {
		printSnapshot(h)
		h.Eng.After(sim.Time(interval.Nanoseconds()), snap)
	}
	h.Eng.After(sim.Time(interval.Nanoseconds()), snap)

	var (
		resName    string
		resDone    bool
		resElapsed sim.Time
		fe         *workload.FrontendResult
	)
	if *frontend {
		sup := wax.Supervise(h)
		var wl *workload.Result
		wl, fe = workload.RunFrontend(h, workload.DefaultFrontend(), 60*sim.Second)
		resName, resDone, resElapsed = wl.Name, wl.Done, wl.Elapsed
		sup.Stop()
	} else {
		res := workload.RunPmake(h, workload.DefaultPmake(), 60*sim.Second)
		resName, resDone, resElapsed = res.Name, res.Done, res.Elapsed
	}
	if *reboot && h.Rebooter != nil {
		// The workload driver stops once pmake settles; keep the clock
		// running until the availability loop does too (rejoin committed,
		// or the crash-loop bound reached).
		h.RunUntil(func() bool {
			return h.Rebooter.Idle() && h.Coord.RecoveryIdle()
		}, h.Now()+15*sim.Second)
	}
	printSnapshot(h)
	fmt.Printf("\nworkload %s finished: done=%v elapsed=%.3fs\n",
		resName, resDone, resElapsed.Seconds())
	if fe != nil {
		printFrontendSLO(fe)
	}

	if *fail >= 0 {
		printRecoveryTimeline(h)
	}
	if dropped := h.Trace.TotalDropped(); dropped > 0 {
		fmt.Printf("\nWARNING: %d trace events dropped by ring truncation:\n", dropped)
		for _, d := range h.Trace.Dropped() {
			if d.Total() > 0 {
				fmt.Printf("  cell %d: %d control + %d data\n", d.Cell, d.Control, d.Data)
			}
		}
		fmt.Println("  (forensic walks and trace tails may be incomplete; raise TraceCap)")
	}
	if *forensicOn || *fail >= 0 {
		fmt.Println("\nforensics:")
		rep := forensic.Analyze(h.Trace.Merged(), h.Trace.Dropped())
		fmt.Print(rep.Format(*topN))
	}
	if *histRows > 0 {
		printHistograms(h, *histRows)
	}
	if *tailN > 0 {
		fmt.Printf("\nforensic event trace (last %d events):\n", *tailN)
		for _, e := range h.Trace.Tail(*tailN) {
			fmt.Printf("  %s\n", e)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hivetop: %v\n", err)
			os.Exit(1)
		}
		if err := h.Trace.ExportChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "hivetop: export trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\ntrace written to %s (load in ui.perfetto.dev)\n", *tracePath)
	}
}

func printSnapshot(h *core.Hive) {
	tb := stats.NewTable(fmt.Sprintf("t=%v", h.Now()),
		"cell", "state", "procs", "free pages", "borrowed", "loaned", "rw pages", "rpc calls", "intr served")
	for _, c := range h.Cells {
		state := "up"
		if c.Failed() {
			state = "DOWN"
		}
		tb.AddRow(
			fmt.Sprint(c.ID), state,
			fmt.Sprint(c.Procs.Live()),
			fmt.Sprint(c.VM.FreePages()),
			fmt.Sprint(c.VM.BorrowedFrames()),
			fmt.Sprint(c.VM.LoanedFrames()),
			fmt.Sprint(c.VM.RemotelyWritablePages()),
			fmt.Sprint(c.EP.Metrics.Counter("rpc.calls").Value()),
			fmt.Sprint(c.EP.Metrics.Counter("rpc.intr_served").Value()),
		)
	}
	fmt.Println(tb)
}

// printRecoveryTimeline reconstructs the detection→alert→barrier1→barrier2
// →resume sequence from the structured trace, per cell, in virtual time.
// With the availability loop on, the same view continues through the
// reboot and join:* phases and ends with the capacity-restored marker.
func printRecoveryTimeline(h *core.Hive) {
	type phase struct {
		cell  int
		name  string
		begin sim.Time
		end   sim.Time
		open  bool
	}
	timelinePhase := func(name string) bool {
		return strings.HasPrefix(name, "recovery:") || strings.HasPrefix(name, "join:")
	}
	var phases []phase
	openIdx := map[string]int{} // "cell:name" -> phases index
	fmt.Println("\nrecovery timeline (virtual time):")
	for _, e := range h.Trace.Merged() {
		switch e.Kind {
		case trace.Hint, trace.Alert, trace.Panic:
			fmt.Printf("  %10.3f ms  cell %d  %s\n", e.At.Millis(), e.Cell, e.Detail())
		case trace.Vote:
			fmt.Printf("  %10.3f ms  cell %d  %s\n", e.At.Millis(), e.Cell, e.Detail())
		case trace.Reboot:
			fmt.Printf("  %10.3f ms  cell %d  REBOOT attempt %d: %s\n",
				e.At.Millis(), e.A, e.B, e.S)
		case trace.Rejoin:
			fmt.Printf("  %10.3f ms  cell %d  REJOIN committed (join round led by cell %d)\n",
				e.At.Millis(), e.A, e.B)
		case trace.PhaseBegin:
			if timelinePhase(e.S) {
				key := fmt.Sprintf("%d:%s", e.Cell, e.S)
				openIdx[key] = len(phases)
				phases = append(phases, phase{cell: e.Cell, name: e.S, begin: e.At, open: true})
			}
		case trace.PhaseEnd:
			if timelinePhase(e.S) {
				key := fmt.Sprintf("%d:%s", e.Cell, e.S)
				if i, ok := openIdx[key]; ok && phases[i].open {
					phases[i].end = e.At
					phases[i].open = false
					fmt.Printf("  %10.3f ms  cell %d  %-18s %8.3f ms\n",
						phases[i].begin.Millis(), e.Cell, e.S,
						(e.At - phases[i].begin).Millis())
				}
			}
		}
	}
	for _, p := range phases {
		if p.open {
			fmt.Printf("  %10.3f ms  cell %d  %-18s (unfinished)\n",
				p.begin.Millis(), p.cell, p.name)
		}
	}
	if len(phases) == 0 {
		fmt.Println("  (no recovery phases recorded)")
	}
	if rb := h.Rebooter; rb != nil {
		if rb.FullCapacityAt > 0 {
			fmt.Printf("  %10.3f ms  ── FULL CAPACITY RESTORED (%d/%d cells live) ──\n",
				rb.FullCapacityAt.Millis(), h.Coord.LiveCount(), len(h.Cells))
		}
		for _, rec := range rb.Records {
			if rec.Restored() {
				fmt.Printf("  cell %d restored in %.3f ms (death verdict → join commit, %d attempt(s))\n",
					rec.Cell, (rec.RejoinAt - rec.DeadAt).Millis(), rec.Attempts)
			} else if rec.GaveUp {
				fmt.Printf("  cell %d NOT restored: gave up after %d attempt(s)\n",
					rec.Cell, rec.Attempts)
			}
		}
	}
}

// printFrontendSLO is the operator's SLO view of a frontend run: the
// aggregate counters and latency quantiles, the availability window if
// the run rode through a fault, and the busiest tenants of the Zipf mix.
func printFrontendSLO(fe *workload.FrontendResult) {
	fmt.Println("\nfrontend SLO view:")
	fmt.Printf("  offered %d (%.0f/s)  issued %d  shed %d  completed %d  lost %d\n",
		fe.Offered, fe.OfferedPerSec, fe.Issued, fe.Shed, fe.Completed, fe.Lost)
	fmt.Printf("  throughput %.0f/s  goodput %.0f/s (%d jobs within SLO)\n",
		fe.ThroughputPerSec, fe.GoodputPerSec, fe.Good)
	fmt.Printf("  latency p50 %.1fµs  p99 %.1fµs  p999 %.1fµs  max %.1fµs\n",
		fe.Latency.P50, fe.Latency.P99, fe.Latency.P999, fe.Latency.Max)
	if fe.Degraded > 0 || fe.ErrWindowMs > 0 {
		fmt.Printf("  degraded arrivals %d  user-visible window %.1fms\n",
			fe.Degraded, fe.ErrWindowMs)
	}
	tb := stats.NewTable("busiest tenants", "tenant", "issued", "done", "done %")
	type trow struct {
		id     int
		issued int64
		done   int64
	}
	rows := make([]trow, len(fe.TenantIssued))
	for i := range fe.TenantIssued {
		rows[i] = trow{i, fe.TenantIssued[i], fe.TenantDone[i]}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].issued != rows[j].issued {
			return rows[i].issued > rows[j].issued
		}
		return rows[i].id < rows[j].id
	})
	for i, r := range rows {
		if i == 8 || r.issued == 0 {
			break
		}
		pct := 0.0
		if r.issued > 0 {
			pct = 100 * float64(r.done) / float64(r.issued)
		}
		tb.AddRow(fmt.Sprint(r.id), fmt.Sprint(r.issued), fmt.Sprint(r.done),
			fmt.Sprintf("%.1f%%", pct))
	}
	fmt.Println(tb)
}

// printHistograms shows each cell's top latency distributions.
func printHistograms(h *core.Hive, rows int) {
	fmt.Println("\nlatency histograms (µs):")
	for _, c := range h.Cells {
		for _, src := range []struct {
			reg  *stats.Registry
			name string
		}{
			{c.EP.Metrics, "rpc.call_us"},
			{c.VM.Metrics, "vm.fault_us"},
		} {
			hist := src.reg.Hist(src.name)
			if hist.N() == 0 {
				continue
			}
			fmt.Printf("cell %d %s:\n%s", c.ID, src.name, hist.Snapshot().Format(rows))
		}
	}
}
