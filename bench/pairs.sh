#!/usr/bin/env bash
# Runs alternating parent/change pairs of every workload and compares them.
#
#   bench/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT [PAIRS] [OUT_DIR]
#
# Pair i runs every workload once on each checkout with seed i, parent first
# when i is odd and change first when i is even, at the run length the
# change's BENCHMARK.json sets. The runs are appended as run records to
# OUT_DIR/parent.jsonl and OUT_DIR/change.jsonl (OUT_DIR defaults to ./pairs),
# which the change's `bench -compare` then judges. PAIRS defaults to 10, the
# fewest the comparison accepts.
set -euo pipefail
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
out="${4:-pairs}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Each checkout builds into its own .bench_build.
unset CARGO_TARGET_DIR
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")"
: >"$out/parent.jsonl"
: >"$out/change.jsonl"

one() { # side checkout workload seed
	local line
	line="$(bash "$2/bench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)"
	printf '{"workload":"%s","seed":%s,"result":%s}\n' "$3" "$4" "$line" >>"$out/$1.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
	for w in $(bash "$change/bench/run.sh" -list); do
		if ((i % 2)); then
			one parent "$parent" "$w" "$i"
			one change "$change" "$w" "$i"
		else
			one change "$change" "$w" "$i"
			one parent "$parent" "$w" "$i"
		fi
	done
done
bash "$change/bench/run.sh" -compare "$out/parent.jsonl" "$out/change.jsonl"
