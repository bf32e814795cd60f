#!/usr/bin/env bash
# Builds the serve-path benchmark from source into .bench_build/ and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pkt-solo-seq --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, binary, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
