#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload corridor --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and tool configuration are kept under
# perfbench/.build, so nothing is written outside the checkout except the
# OS temp directory the compiler uses.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/.build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
