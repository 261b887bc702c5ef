#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ and runs it with the
# given arguments. Everything the build and the run write (Go build
# cache, binary, temporary files, span files) stays inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod and bench/ expected in $PWD)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
