#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build and the run write — Go's build and module caches,
# temporary files, shard directories, result and trace files — goes under
# .bench_build/ at the root of the checkout, which .gitignore names.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/torchgt-benchmark" .) >&2
cd "$root"
exec "$build/torchgt-benchmark" "$@"
