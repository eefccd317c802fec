#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run artifacts all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build_dir/gocache" "$build_dir/gotmp"
build_dir="$(cd "$build_dir" && pwd)"

export GOCACHE="$build_dir/gocache"
export GOTMPDIR="$build_dir/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

commit=""
if [[ -d .git ]]; then
	commit="$(git rev-parse HEAD 2>/dev/null || true)"
fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build_dir/perfbench" .)
exec "$build_dir/perfbench" --out "$build_dir/perfbench-out" "$@"
