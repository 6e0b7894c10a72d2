#!/usr/bin/env bash
# Builds the layer-ledger benchmark from source and runs one workload:
#
#   bash ledgerbench/run.sh --workload job-stream --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch stores all live under .bench_build/ there, so nothing
# is read or written outside the checkout. Build output goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$here" && go build -o "$out/ledgerbench" .) >&2
exec "$out/ledgerbench" -workdir "$out" "$@"
