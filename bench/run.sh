#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh --workload map-guided --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the binary, Go's build cache) and the
# benchmark's scratch state (.bench_build/work) stay under .bench_build/ in
# the working directory.
set -euo pipefail

out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache"
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
