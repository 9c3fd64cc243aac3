#!/usr/bin/env bash
# Builds ljqd and the benchmark from the checkout this script lives in,
# then runs the benchmark from the checkout root with the given flags.
# Binaries, the Go build cache and run data all stay in .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# The go command writes its cache, temporary files and telemetry counters
# under these; all stay in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off
# With telemetry on (its default, "local"), every go command may fork a
# detached upload sidecar in a session of its own that outlives this
# script. Turn it off for the go commands below.
printf 'off' > "$out/config/go/telemetry/mode"
go build -o "$out/ljqd" ./cmd/ljqd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -ljqd "$out/ljqd" -workdir "$out/run" "$@"
