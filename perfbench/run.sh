#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload gemm-wire --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's span files all live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so the benchmark writes nothing
# outside the checkout and never touches the network.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
