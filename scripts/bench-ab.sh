#!/usr/bin/env bash
# A/B of the committed HEAD against a parent revision on one perfbench
# workload: alternating pairs of `perfbench/run.sh --seconds 20 --trace 0`
# runs, then, per end-to-end metric of BENCHMARK.json, each side's median
# and quartiles and the number of pairs the change wins. The exact
# simulated outputs (mean_ipc, lifetime_months) must be bit-equal on both
# sides. Run it from the repository root on a quiet machine:
#
#   bash scripts/bench-ab.sh <parent-rev> [workload] [seed] [pairs]
#   bash scripts/bench-ab.sh HEAD~1 service_mixed 1 10
#
# Defaults: service_mixed, seed 1, 10 pairs. Both sides are checked out as
# git worktrees under .bench_build/ and build there, so only committed
# code is measured. Odd pairs run the parent first, even pairs the change.
# The per-run results stay in .bench_build/ab-<workload>-seed<seed>.jsonl.
# Quartiles interpolate linearly between sorted runs, as in bench-record.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: bash scripts/bench-ab.sh <parent-rev> [workload] [seed] [pairs]" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
workload=${2:-service_mixed}
seed=${3:-1}
pairs=${4:-10}
secs=20
exact='["mean_ipc", "lifetime_months"]'
head=$(git rev-parse HEAD)
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
	{ echo "bench-ab: no workload $workload in BENCHMARK.json" >&2; exit 2; }
[ -z "$(git status --porcelain --untracked-files=no)" ] ||
	echo "bench-ab: uncommitted changes are not measured; HEAD is $(git rev-parse --short HEAD)" >&2

mkdir -p .bench_build
tmp=$(mktemp -d "$PWD/.bench_build/ab.XXXXXX")
cleanup() {
	git worktree remove --force "$tmp/parent" 2>/dev/null || true
	git worktree remove --force "$tmp/change" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/parent" "$parent"
git worktree add --quiet --detach "$tmp/change" "$head"

out=.bench_build/ab-$workload-seed$seed.jsonl
: >"$out"
run() { # side pair
	echo "bench-ab: $workload seed $seed pair $2/$pairs $1" >&2
	(cd "$tmp/$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace 0) |
		tail -n 1 | jq -c --arg side "$1" --argjson pair "$2" \
		'{side: $side, pair: $pair, correct, failed, metrics: (.metrics | map_values(.value))}' >>"$out"
}
for i in $(seq "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

echo "$workload seed $seed: $(git rev-parse --short "$parent") -> $(git rev-parse --short "$head"), $pairs pairs of --seconds $secs --trace 0"
jq -s -r --argjson e2e "$(jq -c .end_to_end BENCHMARK.json)" --argjson exact "$exact" '
	def q($p): sort as $a | (($a | length) - 1) * $p | floor as $i
		| if $i + 1 < ($a | length) then $a[$i] + (. - $i) * ($a[$i + 1] - $a[$i]) else $a[$i] end;
	def r: . * 1000 | round / 1000;
	def cell: "\(q(0.5) | r) [\(q(0.25) | r)–\(q(0.75) | r)]";
	(map(select(.side == "parent")) | sort_by(.pair)) as $p
	| (map(select(.side == "change")) | sort_by(.pair)) as $c
	| "| metric | parent | change | change wins | median gap > parent IQR |",
	"|---|---|---|---|---|",
	($e2e[] | .name as $m | .better as $b
		| ($p | map(.metrics[$m])) as $pv | ($c | map(.metrics[$m])) as $cv
		| ([range(0; $pv | length) | select(if $b == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)] | length) as $wins
		| if ($exact | index($m)) then
			"| \($m) (exact) | \($pv[0]) | \($cv[0]) | | bit-equal: \(($pv + $cv | unique | length) == 1) |"
		else
			"| \($m) | \($pv | cell) | \($cv | cell) | \($wins)/\($pv | length) | \((($cv | q(0.5)) - ($pv | q(0.5)) | fabs) > (($pv | q(0.75)) - ($pv | q(0.25)))) |"
		end),
	"failed: parent \(map(select(.side == "parent") | .failed) | add), change \(map(select(.side == "change") | .failed) | add); all correct: \(all(.correct))"
' "$out"
