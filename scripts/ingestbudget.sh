#!/usr/bin/env bash
# ingestbudget.sh BINARY PROFILE ROUNDS — where a history-rw sample's ingest
# CPU goes: the ingest-side samples of a CPU profile of the benchmark binary,
# by row, in ns per ingested sample (DESIGN §10, "Where an append's CPU
# goes").
#
# A sample is ingest-side when its stack holds the benchmark's ingester,
# main.(*historyCluster).ingestRound. It goes to the row of the first frame,
# walking from the leaf up, that matches a row's pattern, and to "other"
# when none does (mostly the generator's own value function). The codec
# frames shared by the head chunk and the tiers (the bit writer, the
# delta-of-delta and XOR codecs) match no row: a sample in one counts where
# its caller does, Chunk.Append or a tier's bucket codec.
#
# The profile comes from a scratch copy of the tree whose bench/main.go
# wraps realMain in pprof.StartCPUProfile/StopCPUProfile; ROUNDS is the run's
# history.rounds extra, and every round ingests 4 nodes × 16 origins × 20
# metrics = 1280 samples. See DESIGN §10 for the whole procedure.
set -euo pipefail

bin="${1:?usage: ingestbudget.sh BINARY PROFILE ROUNDS}"
prof="${2:?usage: ingestbudget.sh BINARY PROFILE ROUNDS}"
rounds="${3:?usage: ingestbudget.sh BINARY PROFILE ROUNDS}"

go tool pprof -traces "$bin" "$prof" 2>/dev/null | awk -v samples="$((rounds * 1280))" '
BEGIN {
	nrows = split("WAL write(2)|persist/retire|WAL frame + CRC|head chunk encode|tiers|series bookkeeping|store latest view", name, "|")
	t = "^dproc/internal/tsdb\\."
	pat[1] = t "\\(\\*wal\\)\\.writeStaged"
	pat[2] = t "(\\(\\*persister\\)\\.|\\(\\*Series\\)\\.sealHead|\\(\\*wal\\)\\.rotate|\\(\\*seglog\\)\\.(open|seal|retire|syncSealed))"
	pat[3] = "^(dproc/internal/tsdb\\.(appendSampleRecord|sampleCRC|frameRecord|\\(\\*wal\\)\\.(stage|commit)|\\(\\*seglog\\)\\.(touch|full))|hash/crc32\\.)"
	pat[4] = t "\\(\\*Chunk\\)\\.Append"
	pat[5] = t "(\\(\\*tier\\)\\.|\\(\\*tierHead\\)\\.|\\(\\*bucketCodec\\)\\.|\\(\\*Bucket\\)\\.|newBucket|bucketStart)"
	pat[6] = t "(\\(\\*Series\\)\\.(Append|evict|lastT|setOldest)|\\(\\*DB\\)\\.(live|appendLocked|AppendBatch))"
	pat[7] = "^dproc/internal/dmon\\.\\(\\*Store\\)\\.Update"
}
function flush(   i, r, row, all) {
	if (nf == 0) return
	all = ""
	for (i = 0; i < nf; i++) all = all "|" frame[i]
	if (index(all, "main.(*historyCluster).ingestRound") == 0) {
		nf = 0
		return
	}
	row = "other"
	for (i = 0; i < nf && row == "other"; i++)
		for (r = 1; r <= nrows; r++)
			if (frame[i] ~ pat[r]) { row = name[r]; break }
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
	for (row in us) printf "%-20s %7.1f ns/sample %5.1f%%\n", row, us[row] * 1e3 / samples, 100 * us[row] / total | "sort"
	close("sort")
	printf "%-20s %7.1f ns/sample (%.2f s of samples, %d samples)\n", "total", total * 1e3 / samples, total / 1e6, samples
}'
