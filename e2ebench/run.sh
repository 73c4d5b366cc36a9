#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments (see main.go for the flags). Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload sparql-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its telemetry and env file under the user config
# directory; point that into the checkout too.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out/work" "$@"
