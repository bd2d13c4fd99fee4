#!/usr/bin/env bash
# deadcode.sh — fail if a function declared in non-test internal/ code is
# linked into none of the repository's binaries: every cmd/*, every
# examples/* that holds Go files, and bench. Each binary is built with
# inlining off (-gcflags=all=-l), so a function that is called keeps its own
# symbol; `go tool nm` lists what the linker kept. A declared function that
# no binary holds is dead unless the allow-list below names it, with its
# reason. An allow-list entry that no longer matches a dead function fails
# too, so the list cannot outlive what it excuses.
#
# Each allow-list line is a name and its reason. Names are written as the
# linker prints them, without the module path: pkg.Func, pkg.Type.Method
# (value receiver), pkg.(*Type).Method (pointer receiver). An entry ending in
# `.*` covers a whole package. Run it with `make deadcode`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

allow=$(cat <<'EOF'
faultnet.*                      test support: the fault-injecting transport and disk, imported only by _test.go files
leakcheck.*                     test support: the goroutine-leak TestMain, imported only by _test.go files
dmon.(*Store).Forget            kept to retire a departed origin once the roster bounds the series (ROADMAP open items)
tsdb.(*DB).Drop                 kept with Store.Forget: removes one series
tsdb.(*DB).DropPrefix           kept with Store.Forget: removes the series of one origin
tsdb.(*DB).drop                 kept with Store.Forget: the shared body of Drop and DropPrefix
clock.(*Virtual).PendingTimers  tests in other packages wait on it for a timer to be armed: TestWaitGuardRunsOnIOClock (kecho), TestServerReadsNodeConfig (adminproto), TestRegistryConnectionRidesTheFabric and TestStartPollingPacesOnNodeClock (core)
tsdb.(*DB).Scan                 the raw-sample oracle of tests in other packages: TestQueryAllMergedP99MatchesPooledPopulation, TestQueryAllAverageMatchesPooledMean and TestQueryAllFailsTruncatedPart (adminproto), sortedPart (query), TestCorruptChunkFailsItsNode (tsdb_test)
EOF
)

mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The binaries: examples/scenarios holds runfiles, not Go.
bins=$(for d in cmd/* examples/* bench; do
	ls "$d"/*.go >/dev/null 2>&1 && echo "./$d"
done)
for b in $bins; do
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$b")" "$b"
done

# linked: every text symbol of the module's internal packages, with generic
# instantiations ([...]) and method-value wrappers (-fm) folded onto the
# function they belong to.
for b in "$tmp"/bin/*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]* +[Tt] +//p' |
	grep "^$mod/internal/" |
	sed -E "s#^$mod/internal/##; :a; s/\[[^][]*\]//; ta; s/-fm$//" |
	sort -u >"$tmp/linked"

# declared: every top-level func and method in non-test internal/ files,
# named the way the linker names it. A value-receiver method also counts as
# linked under its pointer wrapper, so both spellings are written and either
# one found is enough (the join below keys on the first field).
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg=${f#internal/}
	pkg=${pkg%/*}
	awk -v pkg="$pkg" -v file="$f" '
		/^func / {
			line = $0
			sub(/^func /, "", line)
			recv = ""
			if (line ~ /^\(/) {
				recv = line
				sub(/\).*/, "", recv)
				sub(/^\(/, "", recv)
				sub(/^\(/, "", line)
				sub(/^[^)]*\) */, "", line)
				n = split(recv, r, " ")
				recv = r[n]
				sub(/\[.*/, "", recv)
			}
			name = line
			sub(/[[(].*/, "", name)
			if (name == "init" || name == "_") next
			if (recv == "") { print pkg "." name, file ":" NR; next }
			if (recv ~ /^\*/) { print pkg ".(" recv ")." name, file ":" NR; next }
			print pkg "." recv "." name, file ":" NR, pkg ".(*" recv ")." name
		}' "$f"
done >"$tmp/declared"

# dead: declared, not linked under either spelling.
awk 'NR == FNR { linked[$1] = 1; next }
	!($1 in linked) && !($3 != "" && $3 in linked) { print $1, $2 }' \
	"$tmp/linked" "$tmp/declared" >"$tmp/dead"

# Split the dead list against the allow-list; any entry without a reason
# is itself a failure.
status=0
echo "$allow" | awk 'NF == 1 { print "deadcode: allow-list entry without a reason: " $1; bad = 1 }
	END { exit bad }' || status=1
echo "$allow" | awk 'NF { print $1 }' >"$tmp/allow"
awk 'NR == FNR { if ($1 ~ /\.\*$/) pre[substr($1, 1, length($1) - 1)] = 1; else exact[$1] = 1; next }
	{ hit = ($1 in exact); for (p in pre) if (index($1, p) == 1) hit = 1
	  if (!hit) print }' "$tmp/allow" "$tmp/dead" >"$tmp/unexcused"
awk 'NR == FNR { dead[$1] = 1; d[++n] = $1; next }
	$1 ~ /\.\*$/ { p = substr($1, 1, length($1) - 1); hit = 0
		for (i = 1; i <= n; i++) if (index(d[i], p) == 1) hit = 1
		if (!hit) print $1; next }
	!($1 in dead) { print $1 }' "$tmp/dead" "$tmp/allow" >"$tmp/stale"

if [ -s "$tmp/unexcused" ]; then
	echo "deadcode: declared in internal/ but linked into no binary ($(echo $bins)):"
	sed 's/^/  /' "$tmp/unexcused"
	status=1
fi
if [ -s "$tmp/stale" ]; then
	echo "deadcode: allow-list entries that excuse no dead function (linked again, or gone):"
	sed 's/^/  /' "$tmp/stale"
	status=1
fi
[ "$status" = 0 ] && echo "deadcode: ok ($(wc -l <"$tmp/declared") functions declared, $(wc -l <"$tmp/dead") dead, all allow-listed)"
exit "$status"
