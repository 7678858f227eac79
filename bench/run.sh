#!/usr/bin/env bash
# Builds the hyperbench harness from source and runs it. Run from the
# root of the repository:
#
#   bash bench/run.sh --workload ht-1k --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and the compiler's scratch files go to
# $CARGO_TARGET_DIR (default .bench_build), so building and running write
# nothing outside the checkout. The harness is its own module under
# bench/ and compiles the repository's packages from ../ through a
# replace directive; without them the build fails and nothing runs.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$bench_dir" build -o "$out/hyperbench" ./hyperbench
exec "$out/hyperbench" -digests "$bench_dir/testdata/digests.json" \
	-benchmark "$bench_dir/../BENCHMARK.json" "$@"
