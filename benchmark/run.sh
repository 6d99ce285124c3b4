#!/usr/bin/env bash
# Builds the benchmark and the dtaintd server from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload study-cold --seed 1 --seconds 45 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes
# (Go build cache, binaries, traces, the exact-count ledger) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/benchmark" build -o "$out/bin/benchmark" .
go build -o "$out/bin/dtaintd" ./cmd/dtaintd
exec "$out/bin/benchmark" -root "$root" -dtaintd "$out/bin/dtaintd" "$@"
