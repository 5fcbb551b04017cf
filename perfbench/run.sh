#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm_replay --seed 1 --seconds 25 --trace 0
#
# Every file the toolchain and the benchmark write lands under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), and nothing is
# fetched: the module has no dependencies outside this repository.
set -euo pipefail
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
