#!/bin/sh
# bench_smoke.sh — allocation-regression gates.
#
# Every row of BENCH_budget.txt is one gate:
#
#   key  budget  benchmark-regex  package  benchtime  slack-percent
#
# The script runs each row's benchmark once with -benchmem and fails when its
# allocs/op exceeds budget + budget*slack/100. When the row's regex selects
# several benchmarks (sub-benchmarks, say), the largest allocs/op is gated;
# a row whose output has no allocs/op figure fails. Slack 0 makes the budget
# exact, for the paths that must not allocate at all. The hot-path refactors
# hold their gains through an explicit number, not through vigilance.
#
# After an intentional allocation change, rerun the row's benchmark, e.g.
#   go test -run '^$' -bench '^BenchmarkSuiteSerial$' -benchmem -benchtime 1x .
# and copy the new allocs/op into its row with a justification in the PR.
set -eu
cd "$(dirname "$0")/.."

while read -r key budget regex pkg benchtime slack; do
    case "$key" in '' | '#'*) continue ;; esac
    out=$(go test -run '^$' -bench "$regex" -benchmem -benchtime "$benchtime" -timeout 30m "$pkg" </dev/null)
    echo "$out"
    allocs=$(echo "$out" | awk '/^Benchmark/ {for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}' | sort -n | tail -n 1)
    if [ -z "$allocs" ]; then
        echo "bench_smoke: $key: could not find allocs/op in the output of $regex" >&2
        exit 2
    fi
    limit=$((budget + budget * slack / 100))
    if [ "$allocs" -gt "$limit" ]; then
        echo "bench_smoke: FAIL — $key: allocs/op $allocs exceeds budget $budget (+$slack% = $limit)" >&2
        exit 1
    fi
    echo "bench_smoke: OK — $key: allocs/op $allocs within budget $budget (+$slack% = $limit)"
done <BENCH_budget.txt
