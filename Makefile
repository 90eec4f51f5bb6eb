GO ?= go

.PHONY: all check vet build test race soak cover fuzz overhead killresumesmoke daemonsmoke daemonrestartsmoke profile calib results

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

# soak runs the daemon's deterministic chaos campaigns under the race
# detector: the lifecycle soak (concurrent submissions, mid-stream
# disconnects, drain under load; no goroutine leaks, byte-identical cache
# hits) and the crash-restart soak.
soak:
	$(GO) test -race -count=1 -run 'TestChaosSoak|TestCrashRestartSoak' ./internal/serve/

# killresumesmoke runs the real-process crash-resume check: a -jobs 2
# sweep SIGKILLed once its result store holds a cell, rerun on the same
# store, requiring stdout, the figure file and the store's entries (file
# for file) to match an uninterrupted -jobs 1 run byte for byte.
killresumesmoke:
	$(GO) test -count=1 -run TestKillResumeSmoke ./cmd/experiments/

# daemonsmoke runs the real-process memnetd lifecycle check: start the
# daemon, submit and stream a sweep, verify the duplicate submission is
# a cache hit, then SIGTERM it with a job in flight and require a clean
# drain (prompt kernel cancellation, a store whose entries verify, exit
# <= 1). The race detector rides along — the daemon is the most
# concurrent binary in the repo.
daemonsmoke:
	$(GO) test -race -count=1 -run TestDaemonSmoke ./cmd/memnetd/

# daemonrestartsmoke is the crash-recovery counterpart: SIGKILL a real
# memnetd with one job mid-kernel and one queued, restart it on the same
# store, and require both jobs to finish under their original IDs, the
# first life's stored result to come back as a byte-identical cache hit
# (no duplicate simulation), and the accept journal to owe nothing.
daemonrestartsmoke:
	$(GO) test -race -count=1 -run TestDaemonRestartSmoke ./cmd/memnetd/

# Simulator speed is measured by the bench/ module (bash bench/run.sh;
# see bench/README.md), and two of its rows are held to budgets by
# overhead. The root testing.B benches are the DESIGN.md §6 ablations
# and kernel/link microbenchmarks; none of them produces a paper number.
#
# overhead runs one traced chain-managed pass of the bench/ module and
# holds two of its rows to absolute budgets. Both rows are medians of
# 30 rounds that run each short cell plain, with cancellation disarmed
# and unaudited back to back in a rotating order, so host drift cancels
# out of the ratio.
# The per-cell traces land in .bench_build/traces/.
#   audit.overhead <= 0.08: the budget was 5% against the 4-ary heap
#     kernel's 4.1M events/s; the timing-wheel kernel runs the same
#     cells 2.4x faster, so the audit hooks' unchanged absolute cost is
#     a proportionally larger fraction of the run (measured 2-5%). The
#     ceiling is normalized accordingly: a mis-armed full-rate sampler
#     still lands far beyond it.
#   sim.cancel_overhead <= 0.01: the armed cancellation check is a
#     register countdown per event plus a context poll every 2^14
#     events, so its true cost is far below noise. Every memnetd job and
#     every interruptible CLI batch runs with it armed, so a regression
#     here taxes all of them.
overhead:
	@line=$$(bash bench/run.sh --workload chain-managed --seed 1 --seconds 25 --trace 1 | tail -n 1) && \
	echo "$$line" | jq -r '"audit.overhead \(.metrics["audit.overhead"].value)  sim.cancel_overhead \(.metrics["sim.cancel_overhead"].value)"' && \
	echo "$$line" | jq -e '.correct and .failed == 0 and .metrics["audit.overhead"].value <= 0.08 and .metrics["sim.cancel_overhead"].value <= 0.01' >/dev/null || \
	  { echo "overhead: a budget is blown or the pass is not correct: $$line"; exit 1; }

# COVER_FLOOR is the measured total over ./internal/... once the link
# failure model was deleted (94.7% before: its own tests covered it
# almost fully) — the cover gate fails if total statement coverage drops
# below it. cmd/* packages are excluded: their tests drive compiled
# subprocesses, which the coverage profiler cannot see.
COVER_FLOOR ?= 94.6

# cover measures library coverage and enforces the floor. The profile
# goes to a private temp file, removed on exit, as calib's report does;
# keep one for inspection with
#   go test -coverprofile=cover.out ./internal/...
cover:
	@f=$$(mktemp) && trap 'rm -f "$$f"' EXIT && \
	echo "$(GO) test -count=1 -coverprofile=$$f ./internal/..." && \
	$(GO) test -count=1 -coverprofile="$$f" ./internal/... && \
	total=$$($(GO) tool cover -func="$$f" | awk '/^total:/ {sub(/%/, "", $$3); print $$3}') && \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)" && \
	{ awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }; }

# calib runs the model-calibration harness: every published reference row
# and sensitivity band must be within tolerance (the CLI exits nonzero
# otherwise), and the report must match the committed accuracy report
# byte for byte so model drift cannot land silently. Regenerate the
# golden deliberately with:
#   go run ./cmd/experiments -calibrate > results/calibration.txt
# The report goes to a private temp file, removed on exit, so concurrent
# runs cannot overwrite each other's report before the cmp.
calib:
	@f=$$(mktemp) && trap 'rm -f "$$f"' EXIT && \
	echo "$(GO) run ./cmd/experiments -calibrate > $$f" && \
	$(GO) run ./cmd/experiments -calibrate > "$$f" && \
	{ cmp "$$f" results/calibration.txt || \
	  { echo "results/calibration.txt drifted from the live model; regenerate deliberately (see Makefile)"; exit 1; }; } && \
	echo "calibration report matches results/calibration.txt"

# results is the paper record's gate, as calib is the calibration
# report's: it runs every experiment (experiments -run all) into a
# private temp directory, removed on exit, and requires the outputs to
# match results/ file for file and byte for byte. A drifted output, an
# output results/ lacks and a results/ file no experiment writes all
# fail; calibration.txt belongs to calib. It prints each experiment's
# wall time; the whole run took about 3 min with the default -jobs 2 on
# a 2-vCPU host. Regenerate the record deliberately with:
#   go run ./cmd/experiments -run all -outdir results
results:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	echo "$(GO) run ./cmd/experiments -run all -outdir $$d" && \
	$(GO) run ./cmd/experiments -run all -outdir "$$d" > "$$d/run.log" && \
	grep '^(' "$$d/run.log" && \
	bad=0 && \
	for f in "$$d"/*.txt; do cmp "$$f" "results/$${f##*/}" || bad=1; done && \
	for f in results/*.txt; do n=$${f##*/}; \
	  [ "$$n" = calibration.txt ] || [ -e "$$d/$$n" ] || { echo "$$f: no experiment writes it"; bad=1; }; \
	done && \
	if [ $$bad = 1 ]; then echo "results/ drifted from the live model; regenerate deliberately (see Makefile)"; exit 1; fi && \
	echo "all $$(ls "$$d"/*.txt | wc -l) experiment outputs match results/"

# fuzz smoke-runs the committed seed corpora (no fuzzing engine; CI-safe)
# then fuzzes each target briefly. Lengthen with FUZZTIME=30s.
# -fuzzminimizetime=0 keeps each new input as found instead of first
# minimizing it: minimizing the descendants of the ~1 KB journal seeds
# took the whole budget (FuzzAcceptImport ran 499 inputs and found none
# new in 6 s; unminimized, 3,854 and 49 new). A crasher is then saved
# unminimized, which still reproduces it.
FUZZTIME ?= 10s
FUZZFLAGS = -run='^$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=0
fuzz:
	$(GO) test -run Fuzz ./internal/exp ./internal/calib ./internal/serve ./internal/core
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzLoadBatch ./internal/exp
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzCalibReference ./internal/calib
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzAcceptImport ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzReplayV1 ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz=FuzzISP ./internal/core

# profile runs bench/'s chain-managed reference cell under the CPU and
# heap profilers and prints the top CPU consumers. Inspect interactively
# with
#   go tool pprof cpu.pprof      (or mem.pprof)
profile:
	$(GO) run ./cmd/memnetsim -wl mixB -topo daisychain -size big -mech VWL+ROO -policy aware \
		-simtime 400us -warmup 100us -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) tool pprof -top -nodecount=15 cpu.pprof
