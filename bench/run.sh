#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
#   bash bench/run.sh                                   every workload
#   bash bench/run.sh --workload serve-horse --seed 7   one workload
#   bash bench/run.sh --trace 1 --chrome trace.json     per-layer run
#
# Run it from the repository root. The Go build cache, the binary and the
# job server's data directory all stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$out/ocdbench" .

# The job server's data directory, .bench_build/data, is a tmpfs mounted in
# a private mount namespace of the benchmark's process. It stays inside
# the checkout, is gone when the process ends, and takes the shared disk's
# flush latency, which drifts several-fold with the host's I/O load, out of
# the service timings. Where no such namespace can be made, the job data
# stays on disk; the "#" line of each run names the filesystem used.
data="$out/data"
mkdir -p "$data"
mounted='mount -t tmpfs -o size=512m,mode=0755 ocdbench "$1" && shift && exec "$@"'
for ns in "--mount" "--mount --user --map-root-user"; do
	# shellcheck disable=SC2086 # $ns is a list of flags
	if unshare $ns --propagation private sh -c 'mount -t tmpfs ocdbench "$1"' sh "$data" 2>/dev/null; then
		# shellcheck disable=SC2086
		exec unshare $ns --propagation private sh -c "$mounted" sh "$data" "$out/ocdbench" "$@"
	fi
done
echo "bench: no private mount namespace, so the job data stays on disk" >&2
exec "$out/ocdbench" "$@"
