#!/usr/bin/env bash
# Builds cmd/minoanerd and the perfbench program from the source tree the
# command runs in, then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload bbc-dbpedia --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and generated input stays under
# .bench_build/perfbench in that root. Build output goes to stderr; the last
# line of stdout is the result JSON.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# With telemetry on, the go command forks a detached upload process (its own
# session) that outlives the build; switching it off first starts none.
go telemetry off >&2
(cd "$root" && go build -o "$out/minoanerd" ./cmd/minoanerd) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -config "$here/config.json" -minoanerd "$out/minoanerd" -out "$out" "$@"
