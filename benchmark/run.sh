#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload irregular --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the toolchain's
# scratch and config files and the binary all live in .bench_build/ under
# the current directory, so nothing is written outside the checkout and
# nothing is fetched over the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd benchmark && go build -o "$out/cosmos-benchmark" .)
exec "$out/cosmos-benchmark" "$@"
