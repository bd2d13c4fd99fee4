package tsdb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// The write-ahead log: every accepted raw append is framed, CRC'd and
// written to the active segment file before it lands in the in-memory head
// chunk, so the samples that have not yet been sealed into a chunk file
// survive a crash. It is a segmented record log (seglog.go: wal-<seq>.log,
// magic "dprocwal") with one payload:
//
//	sample (type 1): u8 type, u16 series-name length, name bytes,
//	         i64 timestamp (ns), u64 value bits
//
// The unit of writing is the batch (one report, for dmon.Store): its records
// are framed one by one exactly as above, staged in the scratch buffer and
// handed to the file in one Write, followed by one fsync-cadence decision.
// Batching is invisible on disk — the same samples produce the same segment
// bytes whatever the batch sizes, rotation points included.
//
// A segment becomes deletable once every sample it holds is either sealed
// into a persisted chunk or past the retention horizon of its series
// (persister.safeT).

const (
	walMagic   = "dprocwal"
	walVersion = 1
	recSample  = 1
)

// DefaultWALSegmentBytes is the segment rotation threshold when
// Options.WALSegmentBytes is zero.
const DefaultWALSegmentBytes = 1 << 20

// DefaultFsyncEvery is the fsync cadence when Options.FsyncEvery is zero:
// one fsync per batch, i.e. every accepted append is durable before Append
// (or AppendBatch) returns.
const DefaultFsyncEvery = 1

// walQuietSegments bounds how long a series that stopped appending can pin
// the WAL: once more than this many closed segments are on disk and the
// oldest is held only by series that logged nothing in the newest
// walQuietSegments segments, their heads are sealed early (see
// persister.sealQuiet).
const walQuietSegments = 8

// wal is the write-ahead log: the segmented log plus what only it has, the
// batch being staged and the fsync cadence. A create failure leaves it
// without an active segment (w.w == nil) until the next rotate.
type wal struct {
	seglog

	// The batch being staged: whole records not yet written, and the first
	// failure since the last commit. The buffer is reused (hot path: 0
	// allocs).
	buf  []byte
	recs int
	err  error
	// The last timestamp staged and its CRC part (crcWord with half 1): a
	// report's samples share one. Zero is right for t = 0.
	t     int64
	tpart uint32

	fsyncEvery int // records per fsync; <0 never
	sinceSync  int
}

var errWALUnavailable = errors.New("tsdb: wal segment unavailable")

// appendSampleRecord frames one sample record onto buf — the only encoder
// of the payload above — with its CRC given in parts: lead is
// sampleLead(name), the series' own, and tpart is t's,
// crcWord(uint64(t), &sampleCRCTable[1]).
func appendSampleRecord(buf []byte, name string, lead, tpart uint32, t int64, v uint64) []byte {
	start := len(buf)
	buf = append(buf, recordPrefix[:]...)
	buf = append(buf, recSample)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	buf = binary.LittleEndian.AppendUint64(buf, v)
	return frameRecord(buf, start, ^(lead ^ tpart ^ crcWord(v, &sampleCRCTable[0])))
}

// A sample record's CRC is that of the payload up to the timestamp, which
// every record of the series shares, continued over t and v (CRC-32 chains:
// the sum of a‖b is the sum of a carried on over b). Sliced 16 bytes at a
// time, the CRC register after t‖v is the XOR of one table row per byte,
// indexed by the byte XORed with the register's byte at its place; and a
// row of a XOR is the XOR of the rows. So the register is the XOR of three
// parts: the prefix CRC's, taken once per series (sampleLead); t's, taken
// once for the records of a batch that share a timestamp; and v's. Each
// part reads one word, with no loop and no load of the record's bytes.

// sampleLead is the part of name's sample-record CRCs that the prefix — the
// payload up to the timestamp, read off a record the encoder frames —
// carries over t‖v: a durable DB takes it once per series, when the series
// is created.
func sampleLead(name string) uint32 {
	rec := appendSampleRecord(nil, name, 0, 0, 0, 0)
	prefix := crc32.ChecksumIEEE(rec[recOverhead : len(rec)-16])
	return crcWord(uint64(^prefix), &sampleCRCTable[1])
}

// crcWord is the part of the CRC-32 register that 8 bytes, w little-endian,
// carry with 8·k more bytes after them, through rows = &sampleCRCTable[k]:
// k = 1 for t, 0 for v.
func crcWord(w uint64, rows *[8][256]uint32) uint32 {
	return rows[7][byte(w)] ^ rows[6][byte(w>>8)] ^ rows[5][byte(w>>16)] ^ rows[4][byte(w>>24)] ^
		rows[3][byte(w>>32)] ^ rows[2][byte(w>>40)] ^ rows[1][byte(w>>48)] ^ rows[0][byte(w>>56)]
}

// sampleCRCTable is the slicing table of CRC-32 IEEE for 16 bytes, in two
// halves of eight rows: row j of half k is what a byte contributes with
// 8·k+j more bytes after it, so row 0 of half 0 is the byte-at-a-time table.
var sampleCRCTable = func() (tab [2][8][256]uint32) {
	tab[0][0] = *crc32.IEEETable
	for i := range 256 {
		c := tab[0][0][i]
		for k := 1; k < 16; k++ {
			c = tab[0][0][byte(c)] ^ c>>8
			tab[k/8][k%8][i] = c
		}
	}
	return tab
}()

// walRecord is one decoded sample record. name is a view into the payload
// it was decoded from: replay looks the series up without a copy and makes
// one only for a series it creates.
type walRecord struct {
	name []byte
	t    int64
	v    uint64
}

// decodeSample parses a WAL payload; ok is false for anything but a
// well-formed sample record (skipped, not a tear: its CRC was good).
func decodeSample(payload []byte) (r walRecord, ok bool) {
	if payload[0] != recSample || len(payload) < 1+2+16 {
		return r, false
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+nameLen+16 != len(payload) {
		return r, false
	}
	return walRecord{
		name: payload[3 : 3+nameLen],
		t:    int64(binary.LittleEndian.Uint64(payload[3+nameLen:])),
		v:    binary.LittleEndian.Uint64(payload[3+nameLen+8:]),
	}, true
}

// stage adds one sample of the current batch. A timestamp that does not
// advance the series is skipped — Series.Append will reject and count it —
// so rejected samples are never logged. The record is framed into the batch
// buffer; the buffer is written out early only where the segment fills, so
// that rotation falls on the same record as it would one append at a time.
func (w *wal) stage(s *Series, t int64, v uint64) {
	d := &s.durable
	if d.seen && t <= d.seenT {
		return
	}
	d.seen, d.seenT = true, t
	w.touch(s, &d.walSeq)
	if w.err != nil {
		return // the batch has failed: bookkeeping only, the sample stays in memory
	}
	if t != w.t {
		w.t, w.tpart = t, crcWord(uint64(t), &sampleCRCTable[1])
	}
	w.buf = appendSampleRecord(w.buf, s.name, d.crcLead, w.tpart, t, v)
	w.recs++
	if w.full(len(w.buf)) {
		if w.writeStaged(); w.err == nil {
			w.err = w.rotate(w.fsyncEvery > 0)
		}
	}
}

// commit ends the batch: the staged records go out in one write, then one
// fsync-cadence decision covers all of them. A failure anywhere in the batch
// is counted once, not propagated: the samples still land in memory and the
// store keeps serving, merely less durable.
func (w *wal) commit() {
	if w.err == nil {
		w.writeStaged()
	}
	if w.err == nil && w.w != nil && w.fsyncEvery > 0 && w.sinceSync >= w.fsyncEvery {
		if w.err = w.w.Sync(); w.err == nil {
			w.stats.Fsyncs++
			w.sinceSync = 0
		}
	}
	if w.err != nil {
		w.stats.WALErrors++
		w.err = nil
	}
}

// writeStaged hands the staged records to the active segment — the one place
// sample records reach a file. On a short write the counters take only the
// whole records of the prefix that did land.
func (w *wal) writeStaged() {
	buf, recs := w.buf, w.recs
	w.buf, w.recs = buf[:0], 0
	if recs == 0 {
		return
	}
	if w.w == nil {
		w.err = errWALUnavailable
		return
	}
	n, err := w.write(buf)
	w.stats.WALWrites++
	if err != nil {
		w.err = err
		whole := 0
		n, _ = walkRecords(buf[:n], func([]byte) bool { whole++; return true })
		recs, buf = whole, buf[:n]
	}
	w.stats.WALAppends += uint64(recs)
	w.stats.WALBytes += uint64(len(buf))
	w.sinceSync += recs
}

// rotate seals the active segment and opens the next one. A rotation at the
// segment's size syncs only at a cadence, where the cadence's count starts
// over on the new segment; without one, nothing is synced on its own.
func (w *wal) rotate(sync bool) error {
	if err := w.seal(sync); err != nil {
		return err
	}
	w.sinceSync = 0
	return w.open()
}
