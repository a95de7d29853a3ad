#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root: bash bench/run.sh --workload plan-miss --seed 1
#
# The build cache and the binary live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so a run writes nothing outside the
# checkout. The build is offline: bench/ is a module of its own whose only
# dependency is the repository root (replace copack => ../).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root/bench" -o "$out/copack-bench" . >&2
exec "$out/copack-bench" -decl "$root/BENCHMARK.json" "$@"
