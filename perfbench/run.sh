#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (see perfbench/NOTES.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out" "$@"
