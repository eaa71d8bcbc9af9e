#!/usr/bin/env bash
# Builds the campaign benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash campaignbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all live
# under .bench_build/ at the repository root, so a run reads and writes
# nothing outside the tree. Outside a full checkout (no ../go.mod next to
# this directory) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off

(cd "$here" && go build -o "$build/campaignbench" .)
cd "$root"
exec "$build/campaignbench" "$@"
