#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tomcatv-single --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ in the checkout, so a run reads
# and writes nothing outside it (the Go toolchain aside).
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build/perfbench"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (need perfbench/go.mod and go.mod)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2
export PERFBENCH_COMMAND="bash perfbench/run.sh"
exec "$out/perfbench" "$@"
