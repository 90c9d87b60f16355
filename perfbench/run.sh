#!/usr/bin/env bash
# Builds the benchmark and the btadt binary from this checkout, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-ci --seed 42 --seconds 20 --trace 0
#   bash perfbench/run.sh compare A.ndjson B.ndjson
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, temporary files and telemetry are redirected there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/btadt" ./cmd/btadt
(cd perfbench && go build -o "$out/bin/perfbench" .)

if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -btadt "$out/bin/btadt" -root "$root" -work "$out/perfbench" "$@"
