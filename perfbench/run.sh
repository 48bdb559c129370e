#!/usr/bin/env bash
# Builds sprintd and the benchmark client from source, then runs the
# client with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload linked_paper --seed 1 --seconds 40 --trace 0
#
# Everything the build and the benchmark write stays under .bench_build/
# in the working directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sprintd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/sprintd and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/sprintd" ./cmd/sprintd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -sprintd "$out/sprintd" -work "$out" -benchmark-json "$root/BENCHMARK.json" "$@"
