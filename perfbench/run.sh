#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage: bash perfbench/run.sh --workload flow|eco|serve --seed N --seconds S --trace 0|1
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off
if ! (cd "$here" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
