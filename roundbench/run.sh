#!/usr/bin/env bash
# Builds the round benchmark from source and runs it with the given flags:
#
#   bash roundbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache and the binary live in
# .bench_build/ under the current directory, so nothing is written outside
# the checkout, and the build never downloads anything. The benchmark module
# resolves the biscatter module from the parent directory; without it the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/roundbench" build -o "$out/roundbench" .
exec "$out/roundbench" "$@"
