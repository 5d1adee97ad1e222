#!/usr/bin/env bash
# Builds ftbfsd and the load harness from this checkout, then runs the
# harness with the given arguments, e.g.
#
#   bash bench/run.sh --workload zipf-point --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files, Go's
# config dir) stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/ftbfsd ]; then
	echo "run.sh: $root holds no ftbfsd module (go.mod, cmd/ftbfsd) to benchmark" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, every go command may fork an upload process that
# outlives it; turning it off keeps the build to the processes waited for.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -o "$out/ftbfsd" ./cmd/ftbfsd
(cd bench && go build -o "$out/ftbfs-load" .)
exec "$out/ftbfs-load" -daemon "$out/ftbfsd" "$@"
