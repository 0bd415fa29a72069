#!/usr/bin/env bash
# Builds vgxd and the e2ebench load generator from the checkout this is run
# in, then runs one benchmark workload. Run from the repository root:
#
#	bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the daemon's data
# directories live under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
go build -o "$build/vgxd" ./cmd/vgxd

exec "$build/e2ebench" -vgxd "$build/vgxd" -work "$build/runs" "$@"
