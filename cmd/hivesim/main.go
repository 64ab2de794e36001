// Command hivesim runs one of the paper's workloads on a chosen system
// configuration and prints timing and kernel statistics.
//
// Usage:
//
//	hivesim -workload pmake -cells 4
//	hivesim -workload ocean -irix
//	hivesim -workload raytrace -cells 2 -seed 7
//	hivesim -workload pmake -cells 4 -fail 1 -failat 2s
//	hivesim -cells 4 -fail 2 -trace out.json   # Chrome/Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	hive "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "pmake", "pmake | ocean | raytrace")
		cells  = flag.Int("cells", 4, "number of cells (1, 2, or 4)")
		irix   = flag.Bool("irix", false, "run the IRIX 5.2 baseline instead of Hive")
		seed   = flag.Int64("seed", 1995, "simulation seed")
		fail   = flag.Int("fail", -1, "inject a fail-stop fault into this cell")
		failAt = flag.Duration("failat", 2*time.Second, "virtual time of the fault")
		stats  = flag.Bool("stats", false, "dump per-cell kernel counters")
		trace  = flag.String("trace", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	)
	flag.Parse()

	var h *core.Hive
	name := fmt.Sprintf("hive-%dcell", *cells)
	if *irix {
		h = hive.BootIRIX()
		name = "IRIX"
	} else {
		h = workload.BootHiveWith(*cells, *seed, func(cfg *core.Config) {
			if *trace != "" {
				// Wide rings so a full workload's spans survive to export.
				cfg.TraceCap = 1 << 16
			}
		})
	}

	if *fail >= 0 {
		if *fail >= len(h.Cells) {
			fmt.Fprintf(os.Stderr, "no cell %d\n", *fail)
			os.Exit(2)
		}
		h.Eng.At(sim.Time(failAt.Nanoseconds()), func() {
			fmt.Printf("[%v] injecting fail-stop fault into cell %d\n", h.Now(), *fail)
			h.Cells[*fail].FailHardware()
		})
	}

	var res *workload.Result
	switch *wl {
	case "pmake":
		res = workload.RunPmake(h, workload.DefaultPmake(), 120*sim.Second)
	case "ocean":
		res = workload.RunOcean(h, workload.DefaultOcean(), 120*sim.Second)
	case "raytrace":
		res = workload.RunRaytrace(h, workload.DefaultRaytrace(), 120*sim.Second)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	fmt.Printf("%s on %s: elapsed %.3fs (virtual), done=%v\n",
		res.Name, name, res.Elapsed.Seconds(), res.Done)
	fmt.Printf("  page-cache faults: %d (%d remote)\n", res.FaultHits, res.RemoteFaults)
	for _, e := range res.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	if bad, report := workload.VerifyOutputs(h, res); bad > 0 {
		fmt.Printf("  DATA INTEGRITY VIOLATIONS: %d\n", bad)
		for _, r := range report {
			fmt.Printf("    %s\n", r)
		}
	} else if len(res.Outputs) > 0 {
		fmt.Printf("  outputs verified: no data integrity violations\n")
	}
	if *fail >= 0 {
		fmt.Printf("  live cells after fault: %d of %d\n", h.Coord.LiveCount(), len(h.Cells))
		if h.Coord.LastDetectAt > 0 {
			fmt.Printf("  last cell entered recovery %.1f ms after injection\n",
				(h.Coord.LastDetectAt - sim.Time(failAt.Nanoseconds())).Millis())
		}
	}
	if *stats {
		for _, c := range h.Cells {
			fmt.Printf("cell %d counters:\n%s", c.ID, c.VM.Metrics.Snapshot())
			fmt.Print(c.EP.Metrics.Snapshot())
			fmt.Print(c.FS.Metrics.Snapshot())
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hivesim: %v\n", err)
			os.Exit(1)
		}
		if err := h.Trace.ExportChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "hivesim: export trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("  trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *trace)
	}
}
