#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache, and the toolchain's temporary and
# telemetry files all stay under .bench_build/ at the repository root;
# nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
