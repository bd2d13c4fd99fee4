#!/usr/bin/env bash
# querybudget.sh BINARY PROFILE QUERYALLS — where a history-rw queryall's CPU
# goes: the query-side samples of a CPU profile of the benchmark binary, by
# row, in µs per queryall (DESIGN §12, "Where a queryall's CPU goes").
#
# A sample is query-side when its stack holds the benchmark's querier
# (main.(*querier).once, but not its own check, main.(*querier).verify), an
# admin server's connection loop, the fan-out (query.Run) or the registry
# server's connection loop (registry.(*Server).serveConn). A registry sample
# goes to the "registry" row: history-rw's nodes do not heartbeat, so after
# formation the registry serves only the admin roster's lookups (their
# client half stays in the rows below). Any other sample goes to the first
# row whose pattern matches one of its frames, walking from the leaf up, and
# to "other" when none does; a leaf row is split by query kind, p99 (the
# stack reads a value window) or avg (it runs a tsdb query). The "codec" row
# is every encode and decode on the query path: the binary querypart request
# and part (tsdb.Query.AppendBinary/DecodeQuery, query.Part.AppendBinary/
# DecodePart, their varints and framing), the coordinator's parse of the
# operator's query text (tsdb.ParseQuery) and its render of the result
# (query.Result.Render).
#
# The profile comes from a scratch copy of the tree whose bench/main.go
# wraps realMain in pprof.StartCPUProfile/StopCPUProfile; QUERYALLS is the
# run's "attempted" count. See DESIGN §12 for the whole procedure.
set -euo pipefail

bin="${1:?usage: querybudget.sh BINARY PROFILE QUERYALLS}"
prof="${2:?usage: querybudget.sh BINARY PROFILE QUERYALLS}"
queries="${3:?usage: querybudget.sh BINARY PROFILE QUERYALLS}"

go tool pprof -traces "$bin" "$prof" 2>/dev/null | awk -v queries="$queries" '
BEGIN {
	nrows = split("syscalls|conn deadlines|fan-out timers|leaf decode|leaf count|merge|codec|goroutines, stacks", name, "|")
	pat[1] = "^(syscall\\.|internal/runtime/syscall|runtime\\.(futex|epollwait))"
	pat[2] = "^internal/poll\\.runtime_pollSetDeadline"
	pat[3] = "^(context\\.|time\\.(AfterFunc|\\(\\*Timer\\)|newTimer|stopTimer))"
	pat[4] = "^dproc/internal/tsdb\\.(\\(\\*ChunkIter\\)|\\(\\*bitReader\\)|\\(\\*dodCodec\\)|\\(\\*xorCodec\\)|\\(\\*Series\\)\\.(Scan|appendValues)|\\(\\*DB\\)\\.Scan)"
	pat[5] = "^dproc/internal/(query\\.ComputePart|tsdb\\.(\\(\\*(DB|Series)\\)\\.Query|\\(\\*Hist\\)|\\(\\*histScratch\\)\\.count))"
	pat[6] = "^dproc/internal/query\\.\\(\\*Result\\)\\.merge"
	pat[7] = "^(dproc/internal/(query\\.(Part\\.AppendBinary|DecodePart|Result\\.Render|\\(\\*Result\\)\\.Render)|tsdb\\.(ParseQuery|Query\\.AppendBinary|DecodeQuery|ReadU?varint)|adminproto\\.(frame|partLength))|encoding/binary\\.(AppendU?varint|U?varint|littleEndian\\.(AppendUint64|Uint64)))"
	pat[8] = "^runtime\\.(newproc|newstack|morestack|gopark|goexit|schedule|mcall)"
}
function flush(   i, r, row, all) {
	if (nf == 0) return
	all = ""
	for (i = 0; i < nf; i++) all = all "|" frame[i]
	if (all !~ /main\.\(\*querier\)\.once|adminproto\.\(\*Server\)\.serve|query\.Run|registry\.\(\*Server\)\.serveConn/ || index(all, "main.(*querier).verify") > 0) {
		nf = 0
		return
	}
	row = index(all, "registry.(*Server).serveConn") > 0 ? "registry" : "other"
	for (i = 0; i < nf && row == "other"; i++)
		for (r = 1; r <= nrows; r++)
			if (frame[i] ~ pat[r]) { row = name[r]; break }
	if (row ~ /^leaf/) row = row (all ~ /tsdb\.\(\*DB\)\.Query/ ? " (avg)" : " (p99)")
	us[row] += value
	total += value
	nf = 0
}
/^-+\+-+$/ { flush(); next }
nf == 0 {
	if (!match($0, /^ *[0-9.]+(ms|s) +/)) next
	split(substr($0, 1, RLENGTH), v, /[ ]+/)
	num = v[1] == "" ? v[2] : v[1]
	value = (num ~ /ms$/) ? substr(num, 1, length(num) - 2) * 1e3 : substr(num, 1, length(num) - 1) * 1e6
	frame[nf++] = substr($0, RSTART + RLENGTH)
	next
}
{ sub(/^ +/, ""); frame[nf++] = $0 }
END {
	flush()
	for (row in us) printf "%-20s %7.1f us/queryall %5.1f%%\n", row, us[row] / queries, 100 * us[row] / total | "sort"
	close("sort")
	printf "%-20s %7.1f us/queryall (%.2f s of samples, %d queryalls)\n", "total", total / queries, total / 1e6, queries
}'
