#!/usr/bin/env bash
# Compares perfbench between a parent commit and this working tree in
# alternating pairs of runs, then prints per end-to-end metric each side's
# median [q1, q3], the change/parent ratio, the change's wins out of the
# pairs, the verdict against the metric's BENCHMARK.json bound (within,
# WORSE, or unresolved when the parent's own spread is wider than the
# bound), the run and operation counts, and whether the deterministic work
# counts agree.
#
#   bash scripts/perfpairs.sh <parent-ref> <workload> [pairs=5] [seed=1]
#   make perfpairs PARENT=<ref> WORKLOAD=<name> [PAIRS=<n>] [SEED=<s>]
#
# The parent is exported with `git archive` into a temporary tree; each side
# builds and runs `bash perfbench/run.sh --trace 0` from its own tree with
# its own CARGO_TARGET_DIR, so the two never share a binary, a Go cache or a
# work directory; run.sh's default sets the run length. Pair i runs the
# parent first when i is odd and the change first when i is even.
# Everything lives under one temporary directory (under $TMPDIR); the build
# trees are removed at exit and the per-run results kept there for
# inspection.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ] || [ -z "$1" ] || [ -z "$2" ]; then
	sed -n '2,11p' "$0" >&2
	exit 2
fi
parent_ref=$1 workload=$2 pairs=${3:-5} seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_rev=$(git rev-parse --short "$parent_ref^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/perfpairs.XXXXXX")
trap 'rm -rf "$work/parent" "$work/parent-build" "$work/change-build"' EXIT
mkdir -p "$work/parent" "$work/results"
git archive "$parent_rev" | tar -x -C "$work/parent"

# run_side <side> <tree> <pair>: one perfbench run; a failed run leaves an
# empty result file, which the summary counts as unreported.
run_side() {
	local side=$1 tree=$2 i=$3
	echo "pair $i/$pairs: $side" >&2
	(cd "$tree" && CARGO_TARGET_DIR="$work/$side-build" bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --trace 0) \
		>"$work/results/$side-$i.out" 2>"$work/results/$side-$i.log" || echo "  $side run $i failed" >&2
	tail -n 1 "$work/results/$side-$i.out" >"$work/results/$side-$i.json"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run_side parent "$work/parent" "$i"
		run_side change "$root" "$i"
	else
		run_side change "$root" "$i"
		run_side parent "$work/parent" "$i"
	fi
done

echo "perfbench $workload, seed $seed, $pairs pairs: parent $parent_rev vs working tree"
echo "results: $work/results"
go run ./scripts/perfpairs BENCHMARK.json "$work/results"
