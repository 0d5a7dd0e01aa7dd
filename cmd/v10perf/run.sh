#!/usr/bin/env bash
# Builds the v10perf benchmark from source and runs it with the given flags:
#
#   bash cmd/v10perf/run.sh --workload fleet-steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ at the repository root; nothing is downloaded.
set -euo pipefail

dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(cd "$dir/../.." && pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C "$dir" build -o "$out/v10perf" .
exec "$out/v10perf" "$@"
