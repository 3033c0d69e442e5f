#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload relational --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
