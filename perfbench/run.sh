#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload figures-small --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the scratch caches.
set -euo pipefail

mkdir -p .bench_build
out="$(cd .bench_build && pwd)"
mkdir -p "$out/gotmp" "$out/home" "$out/tmp"

(
	cd perfbench
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/gotmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" --workdir "$out/tmp" "$@"
