#!/usr/bin/env bash
# loc.sh [BASE] — non-test Go lines per package and in total, of the working
# tree; with a git ref BASE, the same counts at that ref beside them and the
# delta. BASE is read with `git ls-tree` and `git show`: nothing is checked
# out. This is the size figure a simplicity PR reports in CHANGES.md.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base="${1:-}"

# Both print "<lines> <dir>" per non-test Go file.
tree_files() {
	find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l | awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); print $1, $2 }'
}
ref_files() {
	git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
		d="./$(dirname "$f")"
		echo "$(git show "$1:$f" | wc -l) ${d%/.}"
	done
}

if [ -z "$base" ]; then
	tree_files | awk '{ n[$2] += $1; t += $1 }
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	exit
fi
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "loc: no such commit: $base" >&2; exit 1; }
printf '%7s %7s %7s  (base = %s)\n' base now delta "$base"
{ ref_files "$base" | sed 's/^/base /'; tree_files | sed 's/^/now /'; } |
	awk '{ n[$1, $3] += $2; t[$1] += $2; dirs[$3] }
		END { for (d in dirs) printf "%7d %7d %+7d %s\n", n["base", d], n["now", d], n["now", d] - n["base", d], d
		      printf "%7d %7d %+7d total\n", t["base"], t["now"], t["now"] - t["base"] }' | sort -k4
