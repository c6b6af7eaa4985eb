#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload suite|sweep|build|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
# Not exec: the peak RSS perfbench reports must be its own, and Linux
# keeps the shell's high-water mark across exec.
"$out/perfbench" -out "$out" "$@"
