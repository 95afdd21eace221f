#!/usr/bin/env bash
# Builds the hdfe benchmark from the sources in this checkout and runs it:
#
#   bash hdfebench/run.sh --workload score-open --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, audit
# trails, span dumps, result files) stays under $CARGO_TARGET_DIR, which
# defaults to .bench_build at the checkout root. Without the hdfe module
# beside this directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/xdg" "$build/hdfebench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off \
	HDFEBENCH_OUT="$build/hdfebench"
(cd "$root/hdfebench" && go build -o "$build/hdfebench/hdfebench" .) >&2
cd "$root"
exec "$build/hdfebench/hdfebench" "$@"
