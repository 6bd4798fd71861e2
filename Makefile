# ConvMeter build & verification entry points. `make ci` is the one
# command that runs everything CI runs, in the same order.

GO       ?= go
FUZZTIME ?= 15s

.PHONY: build vet lint test perfbench-test race fuzz bench-snapshot bench-check chaos dag-smoke drift-smoke ci

build:
	$(GO) build ./...

# vet: the host architecture, then arm64, which has no assembly kernels:
# it checks that exec's and simd's pure-Go leaves build on their own.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# convlint: the repo's own analyzer suite (see README "Static analysis
# & CI") after go vet, so `make lint` is the complete static gate. Vet
# is a prerequisite, not a second recipe line, so `make ci` runs it
# once. Exits nonzero on any finding.
lint: vet
	$(GO) run ./cmd/convlint ./...

test:
	$(GO) test ./...

# perfbench-test: the benchmark's own tests. cmd/perfbench is a module of
# its own, so `test` skips it; its TestReproduceFullScaleGolden is the
# only byte-for-byte check of the full-scale simulated reproduction.
perfbench-test:
	cd cmd/perfbench && $(GO) test ./...

# Every race-detector test runs here, once. The concurrent packages (the
# kernel worker pool, ring all-reduce and the simd kernel its reduce runs
# through (whose race build takes the Go leaf), parallel bench collector,
# data-parallel trainer with its chaos and critical-path blame suites,
# telemetry registry/tracer under ./internal/obs/..., drift monitor,
# fault injector, DAG executor with its crash-resume matrix, the
# experiments harness with its DAG resume matrices and Fig. 6's
# concurrent DIPPM folds) run under the
# race detector, plus the lint package itself — its fixture suites drive
# the loader and analyzers concurrently enough to be worth the coverage
# — and the CLI legs that check a run's drift artefact and kill/resume a
# run.
race:
	$(GO) test -race ./internal/exec/... ./internal/allreduce/... ./internal/simd/... ./internal/bench/... ./internal/train/... ./internal/obs/... ./internal/driftwatch/... ./internal/lint/... ./internal/dagrun/... ./internal/faults/... ./internal/experiments/...
	$(GO) test -race -count=1 -run 'TestRunDriftArtefact|TestRunDagCrashResume' ./cmd/experiments

# The perf trajectory: bench_n is the largest <n> among the
# BENCH_<n>.json files in the tree, in numeric order (BENCH_10 follows
# BENCH_9). `override` keeps it out of reach of command-line and
# environment settings, so both targets below always work on the
# files themselves.
override bench_n = $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -n 1)

# bench-snapshot: advance the perf baseline — run the benchmark suites
# and write the next snapshot, BENCH_<n+1>.json (benchsnap validates
# every snapshot it writes). The same run is also checked against the
# newest baseline, BENCH_<n>.json, and the file is written only once the
# check passes, with any re-measured rows at their merged values, so a
# regressed build cannot silently become the new normal: fix the
# regression first, then re-snapshot.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -out BENCH_$(shell expr $(bench_n) + 1).json -check BENCH_$(bench_n).json

# bench-check: re-run the suites (./ and ./internal/obs) against the
# newest baseline, BENCH_<n>.json. Fails on any 0-allocs/op benchmark
# that started allocating (the suite-wide check behind the AllocsPerRun
# pins, on any host), on a >15% ns/op regression when the baseline was
# recorded on this host (same GOMAXPROCS, CPU count and CPU model;
# otherwise ns/op is not compared and the output says so), and when no
# benchmark name matches the baseline.
bench-check:
	$(GO) run ./cmd/benchsnap -check BENCH_$(bench_n).json

# drift-smoke: the drift, critical-path and trace acceptance path, end
# to end through the real binary (the CLI drift verdicts and the blame
# chaos suite run under the race detector in `race`). Each run writes
# its drift check and its trace; obscheck validates the trace and judges
# blame from it with critpath.Analyze, so these two runs are also CI's
# trace-format gate. The slowdown run (persistent straggler on worker 0)
# must report a drift event, steps blaming worker 0, and a well-formed
# multi-worker trace (resolvable span parents, no negative durations,
# no cross-worker time-travel). The clean run must report neither drift
# nor blame, with proof that both watched: a stream in state ok and at
# least one analyzed step.
drift-smoke:
	rm -rf .drift-smoke && mkdir -p .drift-smoke
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile slowdown \
		-drift-out .drift-smoke/drift-slow.json -trace-out .drift-smoke/trace-slow.json \
		> .drift-smoke/report-slow.txt
	$(GO) run ./cmd/obscheck -drift .drift-smoke/drift-slow.json -require-drift \
		-trace .drift-smoke/trace-slow.json -require-blame 0
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile none \
		-drift-out .drift-smoke/drift-clean.json -trace-out .drift-smoke/trace-clean.json \
		> .drift-smoke/report-clean.txt
	$(GO) run ./cmd/obscheck -drift .drift-smoke/drift-clean.json -forbid-drift \
		-trace .drift-smoke/trace-clean.json -forbid-blame
	rm -rf .drift-smoke

# Short fuzz smoke of every fuzz target; seed corpora live under the
# packages' testdata/fuzz/ directories and always run as part of `test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzGraphJSON -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime $(FUZZTIME) ./internal/dagrun
	$(GO) test -run '^$$' -fuzz FuzzConv2dShapes -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz FuzzConv2dBackwardShapes -fuzztime $(FUZZTIME) ./internal/exec
	$(GO) test -run '^$$' -fuzz FuzzAdd -fuzztime $(FUZZTIME) ./internal/simd
	$(GO) test -run '^$$' -fuzz FuzzFit -fuzztime $(FUZZTIME) ./internal/regress

# chaos: a fixed seed matrix of real end-to-end chaos runs (resilient
# training under crashes, drops and corruption), each into its own
# -dag-dir run directory, validated with obscheck -manifest
# -require-faults: the manifests must verify, and the
# exp:exttrainfaults result must count an injected fault. The
# fault-injection suites run under the race detector in `race`.
CHAOS_SEEDS ?= 1 7 42
chaos:
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	for seed in $(CHAOS_SEEDS); do \
		$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed $$seed \
			-dag-dir .chaos-smoke/run-$$seed > .chaos-smoke/report-$$seed.txt || exit 1; \
		$(GO) run ./cmd/obscheck -manifest .chaos-smoke/run-$$seed -require-faults || exit 1; \
	done
	rm -rf .chaos-smoke

# dag-smoke: the crash-resume acceptance path, end to end through the
# real binary (the resume matrices — every node boundary and mid-node
# point, clean seed and chaos profile — run under the race detector in
# `race`): an uninterrupted chaos run, a -dag-crash run that must die
# with exit code 3 after committing its upstream manifests, a resume
# over the same -dag-dir whose report must be byte-identical to the
# uninterrupted run's, and obscheck -manifest validating the surviving
# manifest chain.
dag-smoke:
	rm -rf .dag-smoke && mkdir -p .dag-smoke
	$(GO) build -o .dag-smoke/experiments ./cmd/experiments
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-dag-dir .dag-smoke/clean > .dag-smoke/report-clean.txt
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-dag-dir .dag-smoke/run -dag-crash report@boundary \
		-dag-out .dag-smoke/crashed.json > /dev/null 2> .dag-smoke/crashed.txt; \
		test $$? -eq 3 || { echo "dag-smoke: crash run must exit 3"; exit 1; }
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-dag-dir .dag-smoke/run -dag-out .dag-smoke/resumed.json > .dag-smoke/report-resumed.txt
	cmp .dag-smoke/report-clean.txt .dag-smoke/report-resumed.txt
	$(GO) run ./cmd/obscheck -manifest .dag-smoke/run
	rm -rf .dag-smoke

ci: build vet lint test perfbench-test race chaos dag-smoke drift-smoke bench-check
