#!/usr/bin/env bash
# Builds poiserve and the benchmark from the checkout this is run in, then
# runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload crowd-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, cache and log stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/poiserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/poiserve or perfbench/go.mod here)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/poiserve" ./cmd/poiserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -poiserve "$out/poiserve" -workdir "$out" "$@"
