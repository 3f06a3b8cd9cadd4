#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#	bash qbench/run.sh --workload serve-wait --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, temporary history stores, span dumps) stays
# under the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/qbench" && go build -o "$out/qbench" .)
exec "$out/qbench" -out "$out" "$@"
