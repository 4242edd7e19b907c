#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The binary, the Go build cache, and the
# benchmark's archives and span files all stay under .bench_build (or
# $CARGO_TARGET_DIR when set); nothing is downloaded.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/go-config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
