#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it.
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the
# binary, the stores the workloads create (removed after each run), the
# last untraced result per workload and the traced runs' spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/store" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its config and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
