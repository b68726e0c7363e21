#!/usr/bin/env bash
# Builds the fcdpm binary and the benchmark harness from the checkout the
# command runs in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve-runs --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes, the Go build
# cache included, stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fcdpm" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/fcdpm in $root)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$root/.bench_build/gopath"
# The go command keeps its env file and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/fcdpm" ./cmd/fcdpm
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/fcdpm" "$@"
