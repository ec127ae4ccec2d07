#!/usr/bin/env bash
# Appends one row to BENCH_perfbench.json, the checked-in performance
# trajectory: for every workload in BENCHMARK.json and every seed, the
# median and quartiles of each metric over repeated perfbench runs, with
# the machine the runs were taken on and the commit they measured.
# Run it from the repository root on a quiet machine (about 15 minutes
# on 2 vCPUs):
#
#   bash scripts/bench-record.sh
#
# Each cell is 5 runs of --seconds 20 --trace 0, on seed 1 and on the
# held-out seed 7. Quartiles interpolate linearly between sorted runs;
# with 5 runs q1, median and q3 are the 2nd, 3rd and 4th smallest values.
set -euo pipefail
runs=5
secs=20
seeds="1 7"
out=BENCH_perfbench.json

mkdir -p .bench_build
tmp=$(mktemp -d .bench_build/record.XXXXXX) # inside the checkout, like run.sh's files
trap 'rm -rf "$tmp"' EXIT
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for s in $seeds; do
		for i in $(seq "$runs"); do
			echo "bench-record: $w seed $s run $i/$runs" >&2
			bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 >"$tmp/run"
			tail -n 2 "$tmp/run" | jq -s -c --arg w "$w" --arg s "$s" \
				'{workload: $w, seed: $s, record: .[0].run_record, result: .[1]}' >>"$tmp/runs.jsonl"
		done
	done
done

dirty=false
[ -z "$(git status --porcelain --untracked-files=no -- . ":(exclude)$out")" ] || dirty=true
row=$(jq -s -c \
	--arg commit "$(git rev-parse HEAD)" --argjson dirty "$dirty" \
	--arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --argjson runs "$runs" --argjson secs "$secs" '
	def q($p): sort as $a | (($a | length) - 1) * $p | floor as $i
		| if $i + 1 < ($a | length) then $a[$i] + (. - $i) * ($a[$i + 1] - $a[$i]) else $a[$i] end;
	def summary: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
	{
		commit: $commit, dirty: $dirty, date: $date,
		command: "bash perfbench/run.sh --seconds \($secs) --trace 0", runs: $runs,
		machine: (.[0].record | {cpu_model, nproc, gomaxprocs, go_version}),
		workloads: (group_by(.workload) | map({key: .[0].workload, value:
			(group_by(.seed) | map({key: .[0].seed, value: {
				correct: all(.result.correct),
				failed: (map(.result.failed) | add),
				wall_to_cpu: (map(.record.wall_to_cpu) | summary),
				metrics: (map(.result.metrics | to_entries) | add | group_by(.key)
					| map({key: .[0].key, value: ((map(.value.value) | summary) + {unit: .[0].value.unit})})
					| from_entries)
			}}) | from_entries)}) | from_entries)
	}' "$tmp/runs.jsonl")

if [ -f "$out" ]; then
	jq --argjson row "$row" '.rows += [$row]' "$out" >"$tmp/out.json"
else
	jq -n --argjson row "$row" '{rows: [$row]}' >"$tmp/out.json"
fi
mv "$tmp/out.json" "$out"
echo "bench-record: appended $(git rev-parse --short HEAD) to $out" >&2
