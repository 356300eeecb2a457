#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Every build artifact, cache and result stays under .bench_build/ at the
# checkout root. Usage (from the checkout root):
#
#   bash perfbench/run.sh --workload closed-mixed --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
(
	cd perfbench
	export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache" \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" --out "$build/results" "$@"
