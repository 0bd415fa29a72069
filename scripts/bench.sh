#!/usr/bin/env bash
# bench.sh — run every benchmark in the module five times and record the
# output, in Go's standard benchmark format, in BENCH.txt at the repository
# root. Extra arguments pass through to go test, and later flags win:
#   scripts/bench.sh -benchtime=1x -count=1   # one quick pass
# Read medians and spread from the samples, or run `benchstat BENCH.txt`.
set -euo pipefail
cd "$(dirname "$0")/.."
{
  echo "commit: $(git describe --always --dirty)"
  echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  go test -run '^$' -bench . -benchmem -count 5 "$@" ./...
} | tee BENCH.txt
