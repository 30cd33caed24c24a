#!/usr/bin/env bash
# Builds the benchmark and aiopsd from the sources of the checkout it is
# run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD_DIR NEW_DIR   (saved outputs of several runs each)
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" . >&2
go -C perfbench build -o "$out/bin/aiopsd" repro/cmd/aiopsd >&2
if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -aiopsd "$out/bin/aiopsd" -workdir "$out" "$@"
