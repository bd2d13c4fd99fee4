#!/usr/bin/env bash
# benchpair.sh BASE [N] — measure this working tree against git ref BASE with
# the repository's benchmark, in N alternating pairs of runs per workload.
#
# BASE is exported with `git archive` into a temporary directory and both
# sides are built from their own source by their own bench/run.sh, so each
# side is measured with the benchmark code it was committed with. For every
# seed (20030623, the seed no change was tuned on, then 101, 102, …) and every
# workload the two sides run back to back, and which side goes first
# alternates from seed to seed, so drift of the machine falls on both. Every
# run is appended to a result set with -out; at the end `bench -compare`
# judges the change's set against the base's, and a second table counts, per
# workload and end-to-end metric, the pairs the change won — the "nine of ten
# pairs" half of a claimed gain. The exit status is non-zero if a side did not
# build, if any run failed, or if -compare found a regression.
#
# Environment: SECONDS_PER_RUN (default: run_seconds of BENCHMARK.json),
# WORKLOADS (default: every workload of BENCHMARK.json), OUT (directory for
# the two result sets and per-run logs, default .bench_build/benchpair).
# The script reads bench/ and BENCHMARK.json and changes neither.
set -euo pipefail

base_ref="${1:?usage: benchpair.sh BASE [N]}"
pairs="${2:-10}"
root="$(git rev-parse --show-toplevel)"
cd "$root"

spec="$root/BENCHMARK.json"
seconds="${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")}"
workloads="${WORKLOADS:-$(sed -n '/"workloads"/,/\]/s/.*{"name": "\([^"]*\)".*/\1/p' "$spec")}"
out="${OUT:-$root/.bench_build/benchpair}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$out"
git archive "$base_ref" | tar -x -C "$work/base"
rm -f "$out/base.json" "$out/change.json" "$out/base.txt" "$out/change.txt"

side_dir() { if [ "$1" = base ]; then echo "$work/base"; else echo "$root"; fi; }

# Build each side once, outside any timed run: run.sh compiles and then the
# program rejects -seconds 0 before starting anything, so it is the binary,
# not the exit status, that says whether the side built.
for side in base change; do
	dir="$(side_dir "$side")"
	rm -f "$dir/.bench_build/dproc-bench"
	(cd "$dir" && bash bench/run.sh -seconds 0) >"$out/$side-build.log" 2>&1 || true
	if [ ! -x "$dir/.bench_build/dproc-bench" ]; then
		echo "benchpair: $side did not build: see $out/$side-build.log" >&2
		exit 1
	fi
done

failed=0
run() { # side seed workload
	local log="$out/$1-$2-$3.log"
	if ! (cd "$(side_dir "$1")" && bash bench/run.sh -workload "$3" -seed "$2" \
		-seconds "$seconds" -trace 0 -out "$out/$1.json") >"$log" 2>&1; then
		echo "benchpair: $1 run failed (seed $2, $3): see $log" >&2
		failed=$((failed + 1))
	fi
	awk -v seed="$2" '$2 == "metric" { print seed, $1, $3, $4 }' "$log" >>"$out/$1.txt"
}

i=0
seed=20030623
while [ "$i" -lt "$pairs" ]; do
	order="base change"
	[ $((i % 2)) -eq 1 ] && order="change base"
	for w in $workloads; do
		for side in $order; do
			echo "pair $((i + 1))/$pairs seed $seed $w $side" >&2
			run "$side" "$seed" "$w"
		done
	done
	i=$((i + 1))
	seed=$((100 + i))
done

# The verdict is reported after the pairs-won table, not instead of it.
verdict=0
bash bench/run.sh -compare -spec "$spec" "$out/base.json" "$out/change.json" || verdict=$?

# Pairs won: the direction of each end-to-end metric comes from the spec.
sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1 \2/p' "$spec" >"$work/better"
echo
echo "pairs the change won (same seed, adjacent runs):"
awk '
	FILENAME == ARGV[1] { better[$1] = $2; next }
	FILENAME == ARGV[2] { base[$1 SUBSEP $2 SUBSEP $3] = $4; next }
	{
		k = $1 SUBSEP $2 SUBSEP $3
		if (!(k in base) || !($3 in better)) next
		id = $2 " " $3
		if (!(id in n)) order[++rows] = id
		n[id]++
		if ($4 == base[k]) ties[id]++
		else if ((better[$3] == "higher") == ($4 > base[k])) won[id]++
	}
	END {
		for (r = 1; r <= rows; r++) {
			id = order[r]
			printf "%-38s %2d/%-2d  ties %d\n", id, won[id], n[id], ties[id]
		}
	}
' "$work/better" "$out/base.txt" "$out/change.txt"
echo "result sets and logs: $out"
if [ "$failed" -gt 0 ]; then
	echo "benchpair: $failed run(s) failed; the tables above are short of pairs" >&2
	exit 1
fi
exit "$verdict"
