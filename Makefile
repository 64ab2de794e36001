# Build/test entry points. Everything is pure Go, standard library only.

GO ?= go

.PHONY: all build test lint lint-report lint-examples check drill-smoke mort-check crashloop-soak surge-soak race bench-engine bench-report bench-gate clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs hivelint, the in-tree determinism, layering &
# fault-containment suite (internal/lint): 9 analyzers, six
# single-package ones plus the three interprocedural ones (carefulref,
# rpctaint, errdrop) built on the module-wide call graph and taint
# engine. Stale //hive:lint-ignore pragmas are diagnostics too. The
# -budget flag additionally fails the run if linting itself exceeds 30s
# of wall time: the suite must stay cheap enough to live inside the
# tier-1 gate. The same suite is also gated inside `go test ./...` via
# the internal/lint self-test.
lint:
	$(GO) run ./cmd/hivelint -budget 30s

# lint-report writes the machine-readable lint report; CI uploads it as
# a build artifact.
lint-report:
	$(GO) run ./cmd/hivelint -json -budget 30s > hivelint.json

# lint-examples lints the example programs package by package (they sit
# outside the module-wide default scope; the model-only analyzers exempt
# them, but globalrand and the pragma checks still apply). Nightly CI
# runs this.
lint-examples:
	for d in examples/*/; do $(GO) run ./cmd/hivelint "./$$d" || exit 1; done

# check is the tier-1 gate: build, vet, hivelint, full test suite (which
# includes the trace, frontend and campaign determinism tests), the race
# detector over the packages that actually use OS-level concurrency (the
# parallel trial runner) plus the engine it drives, and the forensic
# cross-check.
check: build
	$(GO) vet ./...
	$(GO) run ./cmd/hivelint -budget 30s
	$(GO) test ./...
	$(GO) test -race ./internal/parallel/... ./internal/sim/...
	$(MAKE) mort-check

# drill-smoke is the fast end-to-end campaign gate: one trial of every
# scenario (paper rows and v2 extensions) through the faultdrill CLI,
# exiting nonzero on any containment failure.
drill-smoke:
	$(GO) run ./cmd/faultdrill -trials 1

# mort-check is the forensic cross-check gate: hivemort re-derives the
# containment verdict of every default-campaign trial purely from the
# structured trace (internal/forensic) and exits nonzero if any verdict
# disagrees with the fault-injection harness's live-state verdict.
mort-check:
	$(GO) run ./cmd/hivemort
	@echo "mort-check: trace-derived verdicts agree with the harness"

# crashloop-soak is the nightly deep gate for the availability loop:
# many extra trials of the crash-loop (scenario 12) and rolling-reboot
# (scenario 13) scenarios beyond the default campaign counts — every
# trial index draws a fresh seed — exiting nonzero on any containment
# failure or unbounded rejoin loop.
crashloop-soak:
	$(GO) build -o .soak-faultdrill ./cmd/faultdrill
	for t in $$(seq 0 24); do ./.soak-faultdrill -scenario 12 -trial $$t || exit 1; done
	for t in $$(seq 0 11); do ./.soak-faultdrill -scenario 13 -trial $$t || exit 1; done
	rm -f .soak-faultdrill
	@echo "crashloop-soak: 25 crash-loop + 12 rolling-reboot trials, all contained"

# surge-soak is the nightly deep gate for the frontend under fault: many
# extra surge trials (scenario 14) beyond the default campaign count —
# every trial index draws a fresh seed, a fresh fault time inside the
# burst, and a fresh victim — exiting nonzero if any trial leaks the
# fault, fails to close the reboot loop, or reports an unbounded
# user-visible window.
surge-soak:
	$(GO) build -o .soak-faultdrill ./cmd/faultdrill
	for t in $$(seq 0 15); do ./.soak-faultdrill -scenario 14 -trial $$t || exit 1; done
	rm -f .soak-faultdrill
	@echo "surge-soak: 16 surge-fault trials, all contained with bounded windows"

# race runs the concurrency-sensitive packages under the race detector,
# including the cross-package determinism gates in internal/faultinject.
race:
	$(GO) test -race ./internal/parallel/... ./internal/sim/... ./internal/faultinject/...

# bench-engine tracks the simulator's own hot paths (events/sec, allocs).
bench-engine:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkEvent|BenchmarkPending|BenchmarkTask' -benchmem ./internal/sim/

# bench-report writes the machine-readable experiment report at -j 1.
# BENCH_hive.json is committed as the tracked baseline; rerun this target
# to refresh it after an intentional behavior change.
bench-report:
	$(GO) run ./cmd/hivebench -quick -json -j 1 -o BENCH_hive.json

# bench-gate is the gate for the paper's numbers: regenerate the quick
# report at -j 8 and fail if any deterministic metric differs at all from
# the committed -j 1 BENCH_hive.json. One exact comparison catches both
# behavior changes and worker-count nondeterminism. Only the metrics maps
# are compared; wall-clock timings are not read. After an intentional
# behavior change, refresh the baseline with `make bench-report` and
# commit it.
bench-gate:
	$(GO) run ./cmd/hivebench -quick -json -j 8 -o /tmp/bench-candidate.json
	$(GO) run ./cmd/benchgate -baseline BENCH_hive.json -candidate /tmp/bench-candidate.json

clean:
	@:
