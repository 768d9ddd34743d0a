#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload live-capacity --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary files, traced-run spans) stays under .bench_build/ at the
# repository root; the toolchain is used offline (no module downloads, no
# toolchain switch).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
