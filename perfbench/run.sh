#!/usr/bin/env bash
# Builds perfbench from this checkout's sources, then runs it with the
# given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload isp-udp-saturate --seed 1 --seconds 45 --trace 0
#
# The build cache, the binary, scratch files and span dumps all stay
# under .bench_build/ in the checkout. The build fails, and so does the
# run, when the repository's sources are not beside perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod TMPDIR="$out/tmp"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
