#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temporary
# files, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod or perfbench/go.mod not found)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
