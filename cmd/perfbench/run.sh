#!/usr/bin/env bash
# Builds cmd/perfbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/perfbench/run.sh --workload infer --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache and temporary files, the
# binary and the results.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp

(cd "$root/cmd/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
