#!/usr/bin/env bash
# Builds mirrord and the benchmark harness from this source tree, then
# runs the harness. Run it from the root of the tree:
#
#   bash mirrorbench/run.sh --workload drain-simple --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) stays under .bench_build/ in the tree.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/mirrord" ./cmd/mirrord
(cd mirrorbench && go build -o "$out/mirrorbench" .)
exec "$out/mirrorbench" -mirrord "$out/mirrord" -root "$root" "$@"
