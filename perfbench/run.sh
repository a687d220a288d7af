#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# Every build output, temporary file, native artifact and result stays
# under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
