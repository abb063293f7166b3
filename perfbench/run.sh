#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload static-verdict --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare PARENT_DIR CHANGE_DIR
#
# The Go build cache, the binary, traces, profiles and spools all stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --artifacts "$out" "$@"
