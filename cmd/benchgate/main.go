// Command benchgate compares a freshly generated hivebench report against
// the committed baseline and exits nonzero if any deterministic metric
// differs from it at all. It is the CI gate for the paper's numbers: the
// baseline is generated at -j 1 and the candidate at -j 8, so the same
// exact check also proves the experiments identical across worker counts:
//
//	go run ./cmd/hivebench -quick -json -j 8 -o /tmp/bench.json
//	go run ./cmd/benchgate -baseline BENCH_hive.json -candidate /tmp/bench.json
//
// Only the experiments' metrics maps are compared; wall-clock timings
// and the info maps are not read. After an intentional behavior change,
// refresh the baseline with `make bench-report` and commit the new
// BENCH_hive.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchcmp"
)

func main() {
	baseline := flag.String("baseline", "BENCH_hive.json", "committed baseline report")
	candidate := flag.String("candidate", "", "freshly generated report to check")
	flag.Parse()

	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate is required")
		os.Exit(2)
	}
	base, err := benchcmp.Load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cand, err := benchcmp.Load(*candidate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	res := benchcmp.Compare(base, cand)
	for _, w := range res.Warnings {
		fmt.Println("warning:", w)
	}
	if !res.OK() {
		for _, f := range res.Failures {
			fmt.Println("FAIL:", f)
		}
		fmt.Printf("benchgate: %d of %d metrics differ from %s "+
			"(intentional? refresh with `make bench-report` and commit)\n",
			len(res.Failures), res.Compared, *baseline)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d metrics identical to %s\n", res.Compared, *baseline)
}
