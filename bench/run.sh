#!/usr/bin/env bash
# bench/run.sh — the one entry point of the end-to-end benchmark.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       build the driver (once; later calls find it in the build cache) and
#       run one workload: the form BENCHMARK.json's command takes
#   bench/run.sh -all [-seed N] [-seconds S] [-out FILE]
#       run every workload untraced, then traced, at one seed; the untraced
#       results are appended to FILE (default bench/out/runs-seed<N>.jsonl)
#   bench/run.sh -compare A.jsonl B.jsonl
#       apply the bounds in BENCHMARK.json to two such files and print each
#       workload x metric row as better / same / worse / unresolved
#
# Everything the build and the runs write stays inside the checkout: the Go
# build cache, temporary files, ledgers and journals go under the build
# directory (.bench_build, or $CARGO_TARGET_DIR when the driver names one),
# traces and run files under bench/out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
bin="$build/daspos-e2e"
go build -ldflags "-X main.commit=$commit" -o "$bin" ./bench/cmd/daspos-e2e

if [ "${1:-}" = "-compare" ]; then
	shift
	exec "$bin" -compare "$@"
fi

# Numbers that cannot mean what they say are not recorded (ROADMAP): worker
# pools and client concurrency need a second core. The driver checks again.
procs="${GOMAXPROCS:-$(nproc)}"
if [ "$procs" -lt 2 ]; then
	echo "bench/run.sh: $procs processor(s); the benchmark needs GOMAXPROCS >= 2" >&2
	exit 2
fi

if [ "${1:-}" != "-all" ]; then
	exec "$bin" "$@"
fi

shift
seed=1 seconds=12 out=""
while [ $# -gt 0 ]; do
	case "$1" in
	-seed) seed="$2" ;;
	-seconds) seconds="$2" ;;
	-out) out="$2" ;;
	*)
		echo "bench/run.sh -all: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done
mkdir -p bench/out
out="${out:-bench/out/runs-seed$seed.jsonl}"
for w in produce preserve query recast chain; do
	"$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 -record "$out"
done
for w in produce preserve query recast chain; do
	"$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 1
done
echo "untraced results appended to $out; traces in bench/out/"
