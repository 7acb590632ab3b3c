#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments
# (--workload, --seed, --seconds, --trace). Run from the repository root:
#
#   bash perfbench/run.sh --workload http-small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, module cache and the
# binary) stays under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
