#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload seq-pipe-pscg --seed 1 --seconds 30 --trace 0
#
# The build cache, the Go configuration directory and the binary live under
# .bench_build in the checkout, and the toolchain is kept offline: the
# benchmark module depends only on the repository's own module, found at ../
# through a replace directive.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
