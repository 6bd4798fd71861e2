# ConvMeter build & verification entry points. `make ci` is the one
# command that runs everything CI runs, in the same order.

GO       ?= go
FUZZTIME ?= 15s

.PHONY: build vet lint test perfbench-test race fuzz obs-smoke obs-bench bench-snapshot bench-check chaos dag-smoke drift-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# convlint: the repo's own analyzer suite (see README "Static analysis
# & CI") plus go vet, so `make lint` is the complete static gate.
# Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/convlint ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench-test: the benchmark's own tests. cmd/perfbench is a module of
# its own, so `test` skips it; its TestReproduceFullScaleGolden is the
# only byte-for-byte check of the full-scale simulated reproduction.
perfbench-test:
	cd cmd/perfbench && $(GO) test ./...

# Every race-detector test runs here, once. The concurrent packages (the
# kernel worker pool, ring all-reduce, parallel bench collector,
# data-parallel trainer with its chaos and critical-path blame suites,
# telemetry registry/tracer, ops server under ./internal/obs/..., drift
# monitor, fault injector, DAG executor with its crash-resume matrix,
# the experiments harness with its DAG resume matrices and Fig. 6's
# concurrent DIPPM folds) run under the
# race detector, plus the lint package itself — its fixture suites drive
# the loader and analyzers concurrently enough to be worth the coverage
# — and the CLI legs that scrape a live ops server and kill/resume a
# run.
race:
	$(GO) test -race ./internal/exec/... ./internal/allreduce/... ./internal/bench/... ./internal/train/... ./internal/obs/... ./internal/driftwatch/... ./internal/lint/... ./internal/dagrun/... ./internal/faults/... ./internal/experiments/...
	$(GO) test -race -count=1 -run 'TestRunWithOpsServer|TestRunDagCrashResume' ./cmd/experiments

# obs-smoke: run the telemetry fixture experiment with the metrics and
# trace flags and validate both artefacts with cmd/obscheck — catches
# exposition/trace formatting regressions that unit tests on the
# exporters alone would miss. (The live ops-server scrape runs under
# the race detector in `race`; the drift artefacts are checked by
# drift-smoke's slowdown and clean runs.)
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	$(GO) run ./cmd/experiments -run exttrainreal -quick \
		-metrics-out .obs-smoke/metrics.prom -trace-out .obs-smoke/trace.json > .obs-smoke/report.txt
	$(GO) run ./cmd/obscheck -metrics .obs-smoke/metrics.prom -trace .obs-smoke/trace.json
	rm -rf .obs-smoke

# obs-bench: exporter and hot-path benchmarks; the Disabled* benchmarks
# must report 0 allocs/op (also asserted by TestDisabledPathZeroAllocs).
obs-bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/obs

# bench-snapshot: advance the perf baseline — run the benchmark suites,
# write the next snapshot in the committed BENCH_<n>.json trajectory
# and validate it with obscheck. The same run is also checked against
# the previous baseline, so a regressed build cannot silently become
# the new normal: fix the regression first, then re-snapshot.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -out BENCH_2.json -check BENCH_1.json
	$(GO) run ./cmd/obscheck -bench BENCH_2.json

# bench-check: re-run the suites and fail on a >15% ns/op regression
# against the committed baseline, or on any 0-allocs/op benchmark that
# started allocating (the dynamic half of the hotpath contract).
bench-check:
	$(GO) run ./cmd/benchsnap -check BENCH_2.json

# drift-smoke: the drift and critical-path acceptance path, end to end
# through the real binary (the live /drift scrape and the blame chaos
# suite run under the race detector in `race`). The slowdown run
# (persistent straggler on worker 0) must report a drift detection on a
# drifting stream, a critical-path report blaming worker 0, and a
# well-formed multi-worker trace (resolvable span parents, no negative
# durations, no cross-worker time-travel). The clean run must report
# neither drift nor blame, with proof that both watched: a stream in
# state ok and at least one analyzed step.
drift-smoke:
	rm -rf .drift-smoke && mkdir -p .drift-smoke
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile slowdown \
		-drift-out .drift-smoke/drift-slow.json -critpath-out .drift-smoke/critpath-slow.json \
		-trace-out .drift-smoke/trace-slow.json > .drift-smoke/report-slow.txt
	$(GO) run ./cmd/obscheck -drift .drift-smoke/drift-slow.json -require-drift \
		-critpath .drift-smoke/critpath-slow.json -require-blame 0 -trace .drift-smoke/trace-slow.json
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile none \
		-drift-out .drift-smoke/drift-clean.json -critpath-out .drift-smoke/critpath-clean.json \
		> .drift-smoke/report-clean.txt
	$(GO) run ./cmd/obscheck -drift .drift-smoke/drift-clean.json -forbid-drift \
		-critpath .drift-smoke/critpath-clean.json -forbid-blame
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

# chaos: a fixed seed matrix of real end-to-end chaos runs (resilient
# training under crashes, drops and corruption) validated with
# obscheck -require-faults, which fails if no fault was injected. The
# fault-injection suites run under the race detector in `race`.
CHAOS_SEEDS ?= 1 7 42
chaos:
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	for seed in $(CHAOS_SEEDS); do \
		$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed $$seed \
			-metrics-out .chaos-smoke/metrics-$$seed.prom > .chaos-smoke/report-$$seed.txt || exit 1; \
		$(GO) run ./cmd/obscheck -metrics .chaos-smoke/metrics-$$seed.prom -require-faults || exit 1; \
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

ci: build vet lint test perfbench-test race obs-smoke chaos dag-smoke drift-smoke bench-check
