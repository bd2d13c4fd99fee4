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

// Recovery reads whatever a crash, a dying disk or a stray process left in
// the data directory: the one scan loop (scanFile) and the two payload
// decoders it feeds must take any bytes. The fuzz targets hold each pairing
// to three properties. A scan never panics. A tear only costs the tail: the
// records replayed from a prefix of the input are a prefix of the records
// replayed from all of it, and the bytes of the replayed records all lie
// before the point the scan gave up at. And what was replayed is what was
// written: re-encoded with the write path's own encoder, the replayed records
// are the input's leading bytes (when the scan skipped no foreign record) and
// scan back to themselves with nothing truncated.
//
// `make fuzz` (and CI) gives each target ten seconds; the seeds are files
// written by a real store, through single and batched appends — for each
// target also the files of the other kind (rejected at the magic) and those
// files under its own magic (records of an unknown type, skipped): one tear
// at most, nothing replayed from a foreign magic.

// seedFiles runs a small durable store — single appends, then batches, then
// a flush and a clean close — and returns the contents of every WAL segment
// and every chunk file that existed at some point along the way.
func seedFiles(f *testing.F) (segments, chunkFiles [][]byte) {
	dir := f.TempDir()
	collect := func() {
		names, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range names {
			buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			if strings.HasPrefix(e.Name(), "wal-") {
				segments = append(segments, buf)
			} else {
				chunkFiles = append(chunkFiles, buf)
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
	return segments, chunkFiles
}

// addSeeds seeds a target with its own kind's files and with what the other
// kind's writer leaves behind: its files as they are, and under this kind's
// magic.
func addSeeds(f *testing.F, magic string, own, other [][]byte) {
	for _, seed := range own {
		f.Add(seed, uint16(len(seed)/2))
	}
	f.Add([]byte(magic), uint16(3))
	for _, seed := range other {
		f.Add(seed, uint16(len(seed)/2))
		if len(seed) > headerLen {
			f.Add(append([]byte(magic), seed[magicLen:]...), uint16(headerLen+3))
		}
	}
}

// FuzzScanWALSegment holds the WAL segment scan and its sample decoder to
// the three recovery properties at the top of this file.
func FuzzScanWALSegment(f *testing.F) {
	segments, chunkFiles := seedFiles(f)
	addSeeds(f, walMagic, segments, chunkFiles)
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		scan := func(buf []byte) (recs []walRecord, st PersistStats) {
			scanFile(buf, []byte(walMagic), &st, func(payload []byte) bool {
				if r, ok := decodeSample(payload); ok {
					recs = append(recs, r)
				}
				return true
			})
			return recs, st
		}
		recs, st := scan(data)
		if st.RecordsTruncated > 1 || st.BytesTruncated > uint64(len(data)) || (st.RecordsTruncated == 0) != (st.BytesTruncated == 0) {
			t.Fatalf("truncation accounting: %+v for %d bytes", st, len(data))
		}
		if len(recs) > 0 && string(data[:magicLen]) != walMagic {
			t.Fatalf("%d records replayed from a file that is not a WAL segment", len(recs))
		}
		if len(recs) > 0 {
			// The scan checks the magic and takes any version byte.
			enc := bytes.Clone(data[:headerLen])
			for _, r := range recs {
				name := string(r.name)
				enc = appendSampleRecord(enc, name, sampleLead(name), crcWord(uint64(r.t), &sampleCRCTable[1]), r.t, r.v)
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

// FuzzScanChunkFile holds the chunk-file scan and its chunk record decoder
// to the same three properties; a loaded record also holds samples.
func FuzzScanChunkFile(f *testing.F) {
	segments, chunkFiles := seedFiles(f)
	addSeeds(f, chunkMagic, chunkFiles, segments)
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		scan := func(buf []byte) (recs []chunkRecord, st PersistStats) {
			scanFile(buf, []byte(chunkMagic), &st, func(payload []byte) bool {
				r, ok, end := decodeChunk(payload)
				if ok {
					recs = append(recs, r)
				}
				return !end
			})
			return recs, st
		}
		recs, st := scan(data)
		if st.RecordsTruncated > 1 || st.BytesTruncated > uint64(len(data)) || (st.RecordsTruncated == 0) != (st.BytesTruncated == 0) {
			t.Fatalf("truncation accounting: %+v for %d bytes", st, len(data))
		}
		if len(recs) > 0 && string(data[:magicLen]) != chunkMagic {
			t.Fatalf("%d records loaded from a file that is not a chunk file", len(recs))
		}
		for _, r := range recs {
			if r.sum.Count <= 0 {
				t.Fatalf("record %q %+v loaded with no samples", r.name, r.sum)
			}
		}
		if len(recs) > 0 {
			// The scan checks the magic and takes any version byte.
			enc := bytes.Clone(data[:headerLen])
			for _, r := range recs {
				enc = appendChunkRecord(enc, r.name, r.sum, r.data)
			}
			switch intact := len(data) - int(st.BytesTruncated); {
			case len(enc) > intact:
				t.Fatalf("loaded records take %d bytes, only %d precede the tear", len(enc), intact)
			case len(enc) == intact && !bytes.Equal(enc, data[:intact]):
				t.Fatal("the loaded prefix does not re-encode to the bytes it was read from")
			}
			again, st2 := scan(enc)
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
		torn, _ := scan(data[:min(int(cut), len(data))])
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

// FuzzChunkIter feeds arbitrary bytes and a sample count to the chunk
// decoder, whose reads past the end of its buffer are bounds the bitReader
// checks by hand: it must never panic, never yield more than the count, and
// stop short of it only with an error. Seeds are real chunks of the
// history-rw value mix and of the timestamp classes, with their counts.
func FuzzChunkIter(f *testing.F) {
	for m := 0; m < 3; m++ {
		c := mixChunk(m, 40)
		f.Add(c.Data(), uint16(c.Summary().Count))
	}
	var c Chunk
	ts := int64(0)
	for i, d := range []int64{1e9, 1e9, 1e9 + 1<<12, 1e9 - 1<<22, 1e9 + 1<<34, 1e9 + 1<<40} {
		ts += d
		c.Append(ts, float64(i)/3)
	}
	f.Add(c.Data(), uint16(c.Summary().Count))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		it := newSealedChunk(Summary{Count: int(count)}, data).Iter()
		n := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			n++
		}
		if n > int(count) || (n < int(count)) != (it.Err() != nil) {
			t.Fatalf("%d of %d samples decoded, err %v", n, count, it.Err())
		}
	})
}
