#!/usr/bin/env bash
# Builds the benchmark program and the CLIs it measures from the checkout
# it is run in, then runs the program with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload explore-queue --seed 1 --seconds 15 --trace 0
#
# Every build product, Go cache and result file stays under .bench_build
# in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/bin/" ./cmd/explore ./cmd/worstcase ./cmd/reprod ./cmd/experiments
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
