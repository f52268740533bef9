#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload batch-1m --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
