#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash benchmark/run.sh --workload os-jester --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the generated
# graphs, the daemon state and the span files. The build runs offline.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# The go command keeps its config and telemetry under the user config
# directory; point that inside the checkout too.
XDG_CONFIG_HOME="$out/config" go build -C benchmark -o "$out/mpmb-benchmark" .
exec "$out/mpmb-benchmark" "$@"
