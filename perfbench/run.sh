#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the
# binary, Go's build cache, temporary files, the go command's own
# configuration and telemetry) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed (run from the repository root of a full checkout)" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
