#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the bench directory.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; its last line of output is the result object
#   bench/run.sh -compare PARENT.jsonl CHANGE.jsonl    (absolute paths)
#       the paired comparison (see pairs.sh)
#   bench/run.sh -spread RUNS.jsonl                      (relative to bench/)
#       each metric's median and run-to-run spread
#   bench/run.sh [SEED [FLAG...]]
#       one set: every workload once, untraced, for BENCHMARK.json's
#       run_seconds, printed as run records ({"workload", "seed", "result"});
#       the flags (such as -raw) are passed to every run
#
# The build and Go's caches live in $CARGO_TARGET_DIR (default .bench_build at
# the repository root), so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/bench"
go build -buildvcs=false -o "$build/bench" .

if [ $# -gt 0 ] && [ "${1#-}" != "$1" ]; then
	exec "$build/bench" "$@"
fi
seed="${1:-1}"
shift || true
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
for w in $("$build/bench" -list); do
	line="$("$build/bench" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 "$@" | tail -n 1)"
	printf '{"workload":"%s","seed":%s,"result":%s}\n' "$w" "$seed" "$line"
done
