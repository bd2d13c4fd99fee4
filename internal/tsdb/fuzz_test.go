package tsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The recovery scanners read whatever a crash, a dying disk or a stray
// process left in the data directory: they must take any bytes. The fuzz
// targets hold them to three properties. A scan never panics. A tear only
// costs the tail: the records replayed from a prefix of the input are a
// prefix of the records replayed from all of it, and the bytes of the
// replayed records all lie before the point the scan gave up at. And what
// was replayed is what was written: re-encoded with the write path's own
// encoder, the replayed records are the input's leading bytes (when the scan
// skipped no foreign record) and scan back to themselves with nothing
// truncated.
//
// `make fuzz` (and CI) gives each target ten seconds; the seeds are files
// written by a real store, through single and batched appends.

// seedFiles runs a small durable store — single appends, then batches, then
// a flush and a clean close — and returns the contents of every file with
// the given name prefix that existed at some point along the way.
func seedFiles(f *testing.F, prefix string) [][]byte {
	dir := f.TempDir()
	var seeds [][]byte
	collect := func() {
		names, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range names {
			if strings.HasPrefix(e.Name(), prefix) {
				buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					f.Fatal(err)
				}
				seeds = append(seeds, buf)
			}
		}
	}
	db, err := Open(Options{DataDir: dir, ChunkSize: 8, WALSegmentBytes: 512, ChunkFileBytes: 256, FsyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	step := int64(time.Second)
	for i := int64(1); i <= 12; i++ {
		db.Append("n0/loadavg", i*step, float64(i)/4)
	}
	collect()
	refs := []Ref{db.Ref("n0/loadavg"), db.Ref("n0/freemem"), db.Ref("n1-peer03/netbw")}
	for i := int64(13); i <= 40; i++ {
		batch := make([]Entry, len(refs))
		for k, r := range refs {
			batch[k] = Entry{Ref: r, T: i * step, V: float64(i * int64(k+1))}
		}
		db.AppendBatch(batch)
	}
	collect()
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	collect() // chunk files sealed with their footers
	return seeds
}

func FuzzScanWALSegment(f *testing.F) {
	for _, seed := range seedFiles(f, "wal-") {
		f.Add(seed, uint16(len(seed)/2))
	}
	f.Add([]byte(walMagic), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		scan := func(buf []byte) (recs []walRecord, st PersistStats) {
			scanWALSegment(buf, &st, func(r walRecord) { recs = append(recs, r) })
			return recs, st
		}
		recs, st := scan(data)
		if uint64(len(recs)) != st.RecordsReplayed {
			t.Fatalf("%d records replayed, %d counted", len(recs), st.RecordsReplayed)
		}
		if st.RecordsTruncated > 1 || st.BytesTruncated > uint64(len(data)) || (st.RecordsTruncated == 0) != (st.BytesTruncated == 0) {
			t.Fatalf("truncation accounting: %+v for %d bytes", st, len(data))
		}
		if len(recs) > 0 {
			// The scan checks the magic and takes any version byte.
			enc := bytes.Clone(data[:walHeaderLen])
			for _, r := range recs {
				enc = appendSampleRecord(enc, r.name, r.t, r.v)
			}
			switch intact := len(data) - int(st.BytesTruncated); {
			case len(enc) > intact:
				t.Fatalf("replayed records take %d bytes, only %d precede the tear", len(enc), intact)
			case len(enc) == intact && !bytes.Equal(enc, data[:intact]):
				t.Fatal("the replayed prefix does not re-encode to the bytes it was read from")
			}
			again, st2 := scan(enc)
			if !reflect.DeepEqual(again, recs) || st2.RecordsTruncated != 0 {
				t.Fatalf("re-encoded records scan back as %d records, %d tears; want %d, 0", len(again), st2.RecordsTruncated, len(recs))
			}
		}
		torn, _ := scan(data[:min(int(cut), len(data))])
		if len(torn) > len(recs) || (len(torn) > 0 && !reflect.DeepEqual(torn, recs[:len(torn)])) {
			t.Fatalf("a tear at %d replays %d records that are not a prefix of the whole file's %d", cut, len(torn), len(recs))
		}
	})
}

func FuzzScanChunkFile(f *testing.F) {
	for _, seed := range seedFiles(f, "chunks-") {
		f.Add(seed, uint16(len(seed)/2))
	}
	f.Add([]byte(chunkMagic), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		scan := func(buf []byte) (recs []chunkRecord, st PersistStats, seriesMax map[string]int64) {
			seriesMax = scanChunkFile(buf, &st, func(r chunkRecord) { recs = append(recs, r) })
			return recs, st, seriesMax
		}
		recs, st, seriesMax := scan(data)
		if st.RecordsTruncated > 1 || st.BytesTruncated > uint64(len(data)) {
			t.Fatalf("truncation accounting: %+v for %d bytes", st, len(data))
		}
		for _, r := range recs {
			if r.sum.Count <= 0 || r.sum.TMax > seriesMax[r.name] {
				t.Fatalf("record %q %+v not covered by the file's index %v", r.name, r.sum, seriesMax)
			}
		}
		if len(recs) > 0 {
			// The scan checks the magic and takes any version byte.
			enc := bytes.Clone(data[:chunkHdrLen])
			for _, r := range recs {
				enc = appendChunkRecord(enc, r.name, r.sum, r.data)
			}
			switch intact := len(data) - int(st.BytesTruncated); {
			case len(enc) > intact:
				t.Fatalf("loaded records take %d bytes, only %d precede the tear", len(enc), intact)
			case len(enc) == intact && !bytes.Equal(enc, data[:intact]):
				t.Fatal("the loaded prefix does not re-encode to the bytes it was read from")
			}
			again, st2, _ := scan(enc)
			if st2.RecordsTruncated != 0 || len(again) != len(recs) {
				t.Fatalf("re-encoded records scan back as %d records, %d tears; want %d, 0", len(again), st2.RecordsTruncated, len(recs))
			}
			for i := range again {
				// Summaries are compared as encoded: a fuzzed one may hold a NaN.
				a, b := appendSummary(nil, again[i].sum), appendSummary(nil, recs[i].sum)
				if again[i].name != recs[i].name || !bytes.Equal(a, b) || !bytes.Equal(again[i].data, recs[i].data) {
					t.Fatalf("record %d changed across re-encoding", i)
				}
			}
		}
		torn, _, _ := scan(data[:min(int(cut), len(data))])
		if len(torn) > len(recs) {
			t.Fatalf("a tear at %d loads %d records, the whole file %d", cut, len(torn), len(recs))
		}
		for i := range torn {
			if torn[i].name != recs[i].name || !bytes.Equal(torn[i].data, recs[i].data) {
				t.Fatalf("a tear at %d loads a record %d that differs from the whole file's", cut, i)
			}
		}
	})
}
