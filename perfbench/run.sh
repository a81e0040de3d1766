#!/usr/bin/env bash
# Builds existdlog and the benchmark from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload closure --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the runs' data directories all
# stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/bin/existdlog" ./cmd/existdlog
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/existdlog" "$@"
