#!/usr/bin/env bash
# Builds racebench from source inside the checkout and runs it with the
# given arguments, for example:
#
#   bash racebench/run.sh --workload serve-wide --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build cache and the binary
# live under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOFLAGS=
go -C "$root/racebench" build -o "$out/racebench" .
exec "$out/racebench" "$@"
