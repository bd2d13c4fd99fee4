#!/usr/bin/env bash
# loc.sh [BASE] — non-test Go lines per package and in total, then the test
# Go total, of the working tree; with a git ref BASE, the same counts at that
# ref beside them and the delta. BASE is read with `git ls-tree` and
# `git show`: nothing is checked out. These are the size figures a simplicity
# PR reports in CHANGES.md.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base="${1:-}"

# dir maps a Go file to its package directory, or to "test" for a test file.
dir_awk='
	function dir(f) { if (f ~ /_test\.go$/) return "test"; sub(/\/[^\/]*$/, "", f); return f }'
# Both print "<lines> <dir>" per Go file.
tree_files() {
	find . -name '*.go' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l | awk '$2 != "total" { print $1, dir($2) }'"$dir_awk"
}
ref_files() {
	git ls-tree -r --name-only "$1" | grep '\.go$' | while read -r f; do
		echo "$(git show "$1:$f" | wc -l) ./$f"
	done | awk '{ print $1, dir($2) }'"$dir_awk"
}

if [ -z "$base" ]; then
	tree_files | awk '$2 == "test" { tt += $1; next } { n[$2] += $1; t += $1 }
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2")
		      printf "%7d total\n%7d test total\n", t, tt }'
	exit
fi
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "loc: no such commit: $base" >&2; exit 1; }
printf '%7s %7s %7s  (base = %s)\n' base now delta "$base"
{ ref_files "$base" | sed 's/^/base /'; tree_files | sed 's/^/now /'; } |
	awk '$3 == "test" { tt[$1] += $2; next } { n[$1, $3] += $2; t[$1] += $2; dirs[$3] }
		END { for (d in dirs) printf "%7d %7d %+7d %s\n", n["base", d], n["now", d], n["now", d] - n["base", d], d | "sort -k4"
		      close("sort -k4")
		      printf "%7d %7d %+7d total\n", t["base"], t["now"], t["now"] - t["base"]
		      printf "%7d %7d %+7d test total\n", tt["base"], tt["now"], tt["now"] - tt["base"] }'
