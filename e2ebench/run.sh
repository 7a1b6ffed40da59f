#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload fleet-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/e2ebench
# in the current directory: the Go build cache, the binary, the generated
# trace file, segment logs and the Chrome-trace output of traced runs.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/go.mod are needed)" >&2
	exit 2
fi
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
(cd "$root/e2ebench" && XDG_CONFIG_HOME="$out/config" go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out/work" "$@"
