#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gups --seed 1 --seconds 15 --trace 0
#
# The binary, Go's build cache and the go tool's own files live under
# .bench_build/perfbench, so a run writes nothing outside the checkout. A
# failed build exits non-zero without running anything.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
