#!/usr/bin/env bash
# Builds the admission benchmark from this checkout and runs it. Run from
# the repository root:
#
#   bash revnfbench/run.sh --workload onsite-serial --seed 1 --seconds 20 --trace 0
#
# Everything the go command writes (build cache, binary, telemetry) stays
# under .bench_build in the checkout; nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "${root}/revnfbench" && go build -o "${build}/revnfbench" .)
exec "${build}/revnfbench" "$@"
