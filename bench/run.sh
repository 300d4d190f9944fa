#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload paper_grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local \
		GOWORK=off GOFLAGS=-mod=readonly \
		go build -o "$out/smartbench" .
)

export TMPDIR="$out/tmp"
exec "$out/smartbench" "$@"
