#!/usr/bin/env bash
# Builds the benchmark and uafserve from this checkout into .bench_build
# and runs the benchmark. Run it from the root of a uafcheck checkout:
#
#   bash uafbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/uafserve" ] || [ ! -f "$root/uafbench/go.mod" ]; then
	echo "uafbench: run from the root of a uafcheck checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= TMPDIR="$out/tmp"

(cd "$root/uafbench" && go build -o "$out/uafbench" .)
go build -o "$out/uafserve" ./cmd/uafserve

exec "$out/uafbench" -root "$root" -uafserve "$out/uafserve" -out "$out" "$@"
