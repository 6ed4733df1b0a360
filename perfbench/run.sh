#!/usr/bin/env bash
# Builds auricd and the benchmark from this checkout, then runs one
# benchmark run. Arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload launch-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches, binaries and run files
# stay under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/auricd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an auric checkout (go.mod, cmd/auricd and perfbench/ are required)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# Keep the Go toolchain's caches, configuration and temporary files inside
# the checkout, offline and on the installed toolchain.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOWORK=off

go build -o "$out/bin/auricd" ./cmd/auricd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -auricd "$out/bin/auricd" -workdir "$out/run" "$@"
