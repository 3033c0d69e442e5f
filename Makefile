GO ?= go

.PHONY: all build test test-shuffle test-parallel vet inline-check race bench bench-sweep benchdiff fuzz-smoke chaos-smoke serve-smoke perfbench-check docker clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-shuffle re-runs the relational suite with the shuffle-then-sort
# backend forced through the env-aware test sorter (the bitonic leg is the
# plain `make test`). CI runs both legs.
test-shuffle:
	OBLIVMC_SORT_BACKEND=shuffle $(GO) test ./internal/relops

# test-parallel is the ModeParallel matrix leg: the relational suite's
# operator calls run on a shared work-stealing pool instead of the serial
# executor (the env-aware testCtx seam), plus the top-level
# serial-vs-parallel equivalence properties. Together with `make race`
# this is the concurrency-correctness gate.
test-parallel:
	OBLIVMC_TEST_MODE=parallel $(GO) test ./internal/relops
	OBLIVMC_TEST_MODE=parallel $(GO) test ./internal/graph
	$(GO) test . -run 'ModeParallel|FingerprintUnaffected|ScalingSmoke' -v

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# inline-check fails unless the metering shell (*Ctx).Access, the unit-cost
# charge (*Ctx).Op and the checkpoint (*Ctx).Check stay inlinable: every
# mem.Array Get/Set calls Access, so an out-of-line call there costs about
# a tenth of the unmetered sort time.
inline-check:
	sh scripts/inline_check.sh

# bench regenerates the relational-layer trend artifact: elems/s for
# Compact/GroupBy (narrow, wide, and per sort backend)/Join/JoinAll, the
# end-to-end query (staged vs planner-fused, per backend), and the graph
# pipeline (connected components per backend, MSF) at
# n ∈ {2^12, 2^16, 2^20}. CI uploads the artifact on every push so the perf
# trajectory is tracked per commit. BENCH_ARGS can bound the sweep, e.g.
# make bench BENCH_ARGS="-max 65536".
bench:
	$(GO) run ./cmd/relbench -out BENCH_9.json $(BENCH_ARGS)

# bench-sweep records the multicore scaling curve: every point measured
# once per -procs pool size into one artifact (per-result workers field).
# CI runs it bounded to 2^16 on the shared runner and uploads
# BENCH_HEAD.json; run it unbounded on a quiet many-core machine for the
# committed BENCH_*.json scaling baselines. SWEEP_PROCS must not exceed
# GOMAXPROCS (relbench fails fast; -oversubscribe overrides).
SWEEP_PROCS ?= 1,2,4
SWEEP_ARGS ?= -max 65536
bench-sweep:
	$(GO) run ./cmd/relbench -procs $(SWEEP_PROCS) $(SWEEP_ARGS) -out BENCH_HEAD.json
	$(GO) run ./cmd/benchdiff -base BENCH_HEAD.json -new BENCH_HEAD.json -warn

# benchdiff measures the CURRENT build (a bounded fresh sweep into the
# uncommitted BENCH_HEAD.json) and compares it against the latest committed
# baseline, flagging elems/s regressions beyond the noise threshold
# (warn-only in CI; drop -warn locally to gate). BENCHDIFF_ARGS widens the
# sweep, e.g. BENCHDIFF_ARGS="" for the full sizes.
BENCHDIFF_BASE ?= BENCH_9.json
BENCHDIFF_ARGS ?= -max 65536
benchdiff:
	$(GO) run ./cmd/relbench -procs 1 -out BENCH_HEAD.json $(BENCHDIFF_ARGS)
	$(GO) run ./cmd/benchdiff -base $(BENCHDIFF_BASE) -new BENCH_HEAD.json -warn

# fuzz-smoke runs each native fuzz target (operator vs plain-Go reference,
# see internal/relops/fuzz_test.go and internal/graph/fuzz_test.go) for a
# short exploration budget beyond the committed seed corpus. Go allows one
# -fuzz pattern per invocation, so the targets run back to back.
# FuzzGroupByBackends differentially fuzzes the shuffle backend against the
# bitonic backend; the graph targets replay oblivious CC/MSF against their
# sequential references on fuzzer-shaped graphs.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzJoinAll$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzJoinAllCapacityAdvisor$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzJoin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzGroupBy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzDistinct$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzGroupByBackends$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzConnectedComponents$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzMSF$$' -fuzztime $(FUZZTIME)

# chaos-smoke is the query-lifecycle leg: under -race, the fault-injection
# chaos storm (concurrent queries with injected panics, slow passes, and
# client cancellations against a tight-admission server), the deadline /
# lane-retirement / drain / disconnect pins in internal/serve, the
# session-level cancellation and poisoning tests at the root, and the pool
# cancellation/panic-isolation tests in internal/forkjoin. Bounded well
# under a minute; the faultinject registry is process-global, so the legs
# run package by package.
chaos-smoke:
	$(GO) test -race ./internal/serve -run 'TestChaos|TestQueryTimeout|TestLaneRetired|TestShutdownDrain|TestClientDisconnect' -count 1
	$(GO) test -race . -run 'TestCancelToken|TestSessionInterrupt|TestRunQueryCtx|TestPanic|TestUntrippedToken|TestCtxWatcher' -count 1
	$(GO) test -race ./internal/forkjoin -run 'TestSerialCheck|TestRunCancel|TestForkPanic|TestCanceledError' -count 1

# serve-smoke is the end-to-end serving check: build oblivserve, start it
# on a random free port, load the generated example through the client,
# run the fused -keyorder -as query, and assert (a) the identical repeat
# is a cache hit with 0 executed sorts and (b) the follow-up over the
# materialization rides the order token to fewer sorts than its cold
# plan. Exercises the client wire structs against the live server.
serve-smoke:
	sh scripts/serve_smoke.sh

# perfbench-check vets and tests the benchmark's own module (perfbench/,
# replace-linked to the root). The root `go build ./...` skips nested
# modules, so without this target an API change the benchmark compiles
# against (relops.Execute, relops.JoinAll, plan.Shape, ...) breaks it
# unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# docker builds the oblivserve container image (multi-stage, static
# binary on scratch-ish alpine). Override the tag with DOCKER_TAG.
DOCKER_TAG ?= oblivserve:latest
docker:
	docker build -t $(DOCKER_TAG) .

clean:
	$(GO) clean ./...
