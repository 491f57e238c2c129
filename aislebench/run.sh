#!/usr/bin/env bash
# Builds the AISLE simulator benchmark from source and runs it with the
# given arguments, for example from the root of a checkout:
#
#   bash aislebench/run.sh --workload fleet-saturation --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and any state the Go toolchain keeps in a
# home directory all stay under .bench_build at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/aislebench" .)
exec "$out/aislebench" "$@"
