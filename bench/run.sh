#!/usr/bin/env bash
# Builds the benchmark and the memnetd daemon from this checkout, then runs
# one benchmark pass. Run it from the repository root:
#
#   bash bench/run.sh --workload chain-managed --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). Build output goes to stderr,
# so the last line of stdout is the benchmark's JSON result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME moves the go command's config and telemetry files too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/bin/memnetbench" . && go build -o "$out/bin/memnetd" memnet/cmd/memnetd) >&2

exec "$out/bin/memnetbench" -memnetd "$out/bin/memnetd" -out "$out/traces" -tmp "$out/tmp" "$@"
