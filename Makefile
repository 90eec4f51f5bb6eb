GO ?= go

.PHONY: all check vet build test race bench soak cover fuzz benchdiff distsmoke daemonsmoke daemonrestartsmoke profile calib

all: check

# check is the CI gate: vet, build, and the full test suite under the
# race detector.
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector — including the sweep
# executor tests in internal/exp, which fan hermetic simulations across a
# worker pool and are the main thing the detector is here to watch.
race:
	$(GO) test -race ./...

# soak runs the deterministic chaos campaigns under the race detector:
# seeded random fail/burst/wake-fault/stall + repair schedules across all
# four topologies (byte-identical replays required per seed), the
# distributed churn soak (seeded worker kills mid-sweep, byte-identical
# merged journal required), and the daemon lifecycle soak (concurrent
# submissions, mid-stream disconnects, drain under load; no goroutine
# leaks, byte-identical cache hits). Widen with MEMNET_SOAK_SEEDS=1,...,N.
soak:
	$(GO) test -race -count=1 -run TestChaosSoak ./internal/fault/
	$(GO) test -race -count=1 -run TestChurnSoak ./internal/dist/
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestCrashRestartSoak' ./internal/serve/

# distsmoke runs the real-process distributed sweep check: a coordinator,
# two workers, one SIGKILLed mid-sweep and replaced, requiring the merged
# journal, stdout, and figure files to match a single-process run byte
# for byte.
distsmoke:
	$(GO) test -count=1 -run TestDistributedSmoke ./cmd/experiments/

# daemonsmoke runs the real-process memnetd lifecycle check: start the
# daemon, submit and stream a sweep, verify the duplicate submission is
# a cache hit, then SIGTERM it with a job in flight and require a clean
# drain (prompt kernel cancellation, valid journal, exit <= 1). The
# race detector rides along — the daemon is the most concurrent binary
# in the repo.
daemonsmoke:
	$(GO) test -race -count=1 -run TestDaemonSmoke ./cmd/memnetd/

# daemonrestartsmoke is the crash-recovery counterpart: SIGKILL a real
# memnetd with one job mid-kernel and one queued, restart it on the same
# store, and require both jobs to finish under their original IDs, the
# first life's stored result to come back as a byte-identical cache hit
# (no duplicate simulation), and the accept journal to owe nothing.
daemonrestartsmoke:
	$(GO) test -race -count=1 -run TestDaemonRestartSmoke ./cmd/memnetd/

# bench regenerates the paper-shaped testing.B benchmarks and writes the
# machine-readable sweep-executor record (events/sec, wall time, speedup)
# to BENCH_sweep.json so the perf trajectory is tracked across PRs.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...
	$(GO) run ./cmd/memnetsim -sweepbench BENCH_sweep.json

# COVER_FLOOR is the post-calibration-PR baseline over ./internal/... —
# the cover gate fails if total statement coverage drops below it. cmd/*
# packages are excluded: their tests drive compiled subprocesses, which
# the coverage profiler cannot see.
COVER_FLOOR ?= 90.3

# cover measures library coverage and enforces the floor.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# calib runs the model-calibration harness: every published reference row
# and sensitivity band must be within tolerance (the CLI exits nonzero
# otherwise), and the report must match the committed accuracy report
# byte for byte so model drift cannot land silently. Regenerate the
# golden deliberately with:
#   go run ./cmd/experiments -calibrate > results/calibration.txt
calib:
	$(GO) run ./cmd/experiments -calibrate > /tmp/calibration_check.txt
	@cmp /tmp/calibration_check.txt results/calibration.txt || \
	  { echo "results/calibration.txt drifted from the live model; regenerate deliberately (see Makefile)"; exit 1; }
	@echo "calibration report matches results/calibration.txt"

# fuzz smoke-runs the committed seed corpora (no fuzzing engine; CI-safe)
# then fuzzes each target briefly. Lengthen with FUZZTIME=30s.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run Fuzz ./internal/exp ./internal/fault ./internal/dist ./internal/calib ./internal/durable ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzLoadBatch -fuzztime=$(FUZZTIME) ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run='^$$' -fuzz='FuzzWire$$' -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzWireRequests -fuzztime=$(FUZZTIME) ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzCalibReference -fuzztime=$(FUZZTIME) ./internal/calib
	$(GO) test -run='^$$' -fuzz=FuzzLogReplay -fuzztime=$(FUZZTIME) ./internal/durable
	$(GO) test -run='^$$' -fuzz=FuzzISP -fuzztime=$(FUZZTIME) ./internal/core

# profile runs the standard benchmark sweep under the CPU and heap
# profilers and prints the top CPU consumers. Inspect interactively with
#   go tool pprof cpu.pprof      (or mem.pprof)
profile:
	$(GO) run ./cmd/memnetsim -sweepbench /tmp/bench_profile.json \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) tool pprof -top -nodecount=15 cpu.pprof

# benchdiff measures a fresh sweep benchmark and diffs it against the
# committed BENCH_sweep.json with a tolerance band; it hard-fails beyond
# the band. CI runs it blocking with a widened BENCHDIFF_TOL to absorb
# shared-runner clock noise while still catching real regressions.
BENCHDIFF_TOL ?= 0.25
benchdiff:
	$(GO) run ./cmd/memnetsim -sweepbench /tmp/bench_fresh.json
	$(GO) run ./cmd/benchdiff -tol $(BENCHDIFF_TOL) BENCH_sweep.json /tmp/bench_fresh.json
