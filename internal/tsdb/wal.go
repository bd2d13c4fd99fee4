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

	fsyncEvery int // records per fsync; <0 never
	sinceSync  int
}

var errWALUnavailable = errors.New("tsdb: wal segment unavailable")

// appendSampleRecord frames one sample record onto buf — the only encoder
// of the payload above. prefix is samplePrefixCRC(name): the CRC-32 of the
// payload up to the timestamp, which every record of the series shares, so
// the record's CRC is that one continued over t and v (CRC-32 chains: the
// sum of a‖b is the sum of a carried on over b).
func appendSampleRecord(buf []byte, name string, prefix uint32, t int64, v uint64) []byte {
	start := len(buf)
	buf = append(buf, recordPrefix[:]...)
	buf = append(buf, recSample)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	buf = binary.LittleEndian.AppendUint64(buf, v)
	return frameRecord(buf, start, crc32.Update(prefix, crc32.IEEETable, buf[len(buf)-16:]))
}

// samplePrefixCRC is the CRC-32 of name's sample-record payload up to the
// timestamp, read off a record the encoder frames: a durable DB takes it
// once per series, when the series is created.
func samplePrefixCRC(name string) uint32 {
	rec := appendSampleRecord(nil, name, 0, 0, 0)
	return crc32.ChecksumIEEE(rec[recOverhead : len(rec)-16])
}

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
	w.buf = appendSampleRecord(w.buf, s.name, d.crcPrefix, t, v)
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
