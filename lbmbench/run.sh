#!/usr/bin/env bash
# Builds the benchmark and the sunwaylb CLI from the sources of the
# checkout this script sits in, then runs the benchmark with the given
# arguments, e.g.
#
#   bash lbmbench/run.sh --workload cavity-cli --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(
	cd "$root/lbmbench"
	go build -o "$build/bin/lbmbench" .
	go build -o "$build/bin/sunwaylb" sunwaylb/cmd/sunwaylb
)
cd "$root"
exec "$build/bin/lbmbench" -bin "$build/bin/sunwaylb" -work "$build/work" -results "$build/results" "$@"
