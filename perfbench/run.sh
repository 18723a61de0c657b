#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every file it writes (Go build cache and temporary files, the
# binary, results, spans) stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload detect-hubs --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
