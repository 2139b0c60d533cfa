#!/usr/bin/env bash
# Builds crrperf and the CLIs it drives (crrserve, crrrouter) from the
# sources of this checkout, then runs crrperf with the given arguments. Run it
# from the repository root:
#
#   bash cmd/crrperf/run.sh -seed 1 -out run.json
#   bash cmd/crrperf/run.sh --workload discover-airquality --seed 3 --seconds 20 --trace 0
#   bash cmd/crrperf/run.sh -compare ../parent .
#
# The Go build cache, the binaries and every file a run writes stay under
# .bench_build/ in the current directory. Compile time is never measured.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/crrperf/go.mod || ! -d internal/core || ! -d cmd/crrserve ]]; then
	echo "crrperf: the crr sources are missing here; run from the repository root" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR" "$build/crrperf/bin"

go build -C cmd/crrperf -o "$build/crrperf/bin/" . \
	github.com/crrlab/crr/cmd/crrserve github.com/crrlab/crr/cmd/crrrouter

exec "$build/crrperf/bin/crrperf" -bin "$build/crrperf/bin" -work "$build/crrperf" "$@"
