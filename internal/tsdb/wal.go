package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
)

// The write-ahead log: every accepted raw append is framed, CRC'd and
// written to the active segment file before it lands in the in-memory head
// chunk, so the samples that have not yet been sealed into a chunk file
// survive a crash. Segments are created once, written sequentially, never
// reopened for append, and replayed whole on open; a torn or corrupt
// record truncates replay at the tear instead of failing the open (the
// bytes past a tear are by definition unacknowledged).
//
// Segment file layout (wal-<seq>.log, little-endian throughout):
//
//	header:  8-byte magic "dprocwal", 1-byte version
//	record:  u32 payload length, u32 CRC-32 (IEEE) of payload, payload
//	payload: u8 record type (1 = sample), u16 series-name length,
//	         name bytes, i64 timestamp (ns), u64 value bits
//
// The unit of writing is the batch (one report, for dmon.Store): its records
// are framed one by one exactly as above, staged in the scratch buffer and
// handed to the file in one Write, followed by one fsync-cadence decision.
// Batching is invisible on disk — the same samples produce the same segment
// bytes whatever the batch sizes, rotation points included.
//
// A segment becomes deletable once every sample it holds is either sealed
// into a persisted chunk or past the retention horizon of its series; the
// per-segment pin list is the bookkeeping behind that check.

const (
	walMagic     = "dprocwal"
	walVersion   = 1
	recSample    = 1
	walHeaderLen = len(walMagic) + 1
	recOverhead  = 8 // length + CRC prefix
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

// pin ties a closed file to one series with samples in it: the file is
// load-bearing until the series' watermark reaches maxT, the newest of those
// samples — or the series is dropped.
type pin struct {
	s    *Series
	maxT int64
}

// walSegmentMeta describes one closed-but-undeleted segment.
type walSegmentMeta struct {
	seq  uint64
	name string // file path
	pins []pin
}

// wal is the segmented write-ahead log. It has no lock of its own: the
// owning DB serializes every call under db.mu.
type wal struct {
	fs  FS
	dir string

	seq       uint64     // active segment sequence
	w         FileWriter // nil after an unrecovered create failure
	size      int        // bytes written to the active segment
	sinceSync int
	touched   []pin // series logged in the active segment (maxT set at close)

	// The batch being staged: whole records not yet written, and the first
	// failure since the last commit. The buffer is reused (hot path: 0
	// allocs).
	buf  []byte
	recs int
	err  error

	fsyncEvery int // records per fsync; <0 never
	segBytes   int

	segments []walSegmentMeta // closed segments on disk, ascending seq

	stats *PersistStats
}

var errWALUnavailable = errors.New("tsdb: wal segment unavailable")

func walSegmentName(dir string, seq uint64) string {
	return path.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// openSegment starts a fresh active segment at w.seq.
func (w *wal) openSegment() error {
	fw, err := w.fs.Create(walSegmentName(w.dir, w.seq))
	if err != nil {
		w.w = nil
		return err
	}
	hdr := append(w.buf[:0], walMagic...)
	hdr = append(hdr, walVersion)
	if _, err := fw.Write(hdr); err != nil {
		_ = fw.Close()
		w.w = nil
		return err
	}
	w.w = fw
	w.size = walHeaderLen
	w.sinceSync = 0
	return nil
}

// appendSampleRecord frames one sample record onto buf — the only encoder
// of the format above.
func appendSampleRecord(buf []byte, name string, t int64, v uint64) []byte {
	start := len(buf)
	payload := 1 + 2 + len(name) + 8 + 8
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, recSample)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
	buf = binary.LittleEndian.AppendUint64(buf, v)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+recOverhead:]))
	return buf
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
	w.touch(s)
	if w.err != nil {
		return // the batch has failed: bookkeeping only, the sample stays in memory
	}
	w.buf = appendSampleRecord(w.buf, s.name, t, v)
	w.recs++
	if w.size+len(w.buf) >= w.segBytes {
		if w.write(); w.err == nil {
			w.err = w.rotate()
		}
	}
}

// touch lists s in the active segment's pins, once per segment.
func (w *wal) touch(s *Series) {
	// Sequence 0 is a recovered file with a malformed name: it matches the
	// "never listed" mark, so list unconditionally (a duplicate pin is
	// harmless).
	if d := &s.durable; d.walSeq != w.seq || w.seq == 0 {
		d.walSeq = w.seq
		w.touched = append(w.touched, pin{s: s})
	}
}

// commit ends the batch: the staged records go out in one write, then one
// fsync-cadence decision covers all of them. A failure anywhere in the batch
// is counted once, not propagated: the samples still land in memory and the
// store keeps serving, merely less durable.
func (w *wal) commit() {
	if w.err == nil {
		w.write()
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

// write hands the staged records to the active segment — the one place
// sample records reach a file. On a short write the counters take only the
// whole records of the prefix that did land.
func (w *wal) write() {
	buf, recs := w.buf, w.recs
	w.buf, w.recs = buf[:0], 0
	if recs == 0 {
		return
	}
	if w.w == nil {
		w.err = errWALUnavailable
		return
	}
	n, err := w.w.Write(buf)
	w.stats.WALWrites++
	w.size += n
	if err != nil {
		w.err = err
		recs, buf = wholeRecords(buf[:n])
	}
	w.stats.WALAppends += uint64(recs)
	w.stats.WALBytes += uint64(len(buf))
	w.sinceSync += recs
}

// wholeRecords returns how many complete records lead buf, and that prefix.
func wholeRecords(buf []byte) (int, []byte) {
	recs, off := 0, 0
	for len(buf)-off >= recOverhead {
		end := off + recOverhead + int(binary.LittleEndian.Uint32(buf[off:]))
		if end > len(buf) {
			break
		}
		recs, off = recs+1, end
	}
	return recs, buf[:off]
}

// rotate seals the active segment (fsync + close) and opens the next one.
// The sealed segment stays on disk until deletable.
func (w *wal) rotate() error {
	if err := w.seal(); err != nil {
		return err
	}
	w.seq++
	return w.openSegment()
}

// seal makes the active segment durable and closes it, recording its
// deletion bookkeeping. After seal the wal accepts no appends until
// openSegment runs again.
func (w *wal) seal() error {
	if w.w == nil {
		return nil
	}
	syncErr := w.w.Sync()
	if syncErr == nil {
		w.stats.Fsyncs++
	}
	closeErr := w.w.Close()
	w.w = nil
	w.closeSegment(walSegmentName(w.dir, w.seq))
	w.stats.SegmentsSealed++
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// closeSegment moves segment w.seq, stored at name, to the closed list.
// Timestamps only grow within a series, so each listed series' newest
// sample in the segment is the newest it has logged so far.
func (w *wal) closeSegment(name string) {
	for i := range w.touched {
		w.touched[i].maxT = w.touched[i].s.durable.seenT
	}
	w.segments = append(w.segments, walSegmentMeta{seq: w.seq, name: name, pins: w.touched})
	w.touched = make([]pin, 0, len(w.touched))
}

// dropSafe deletes closed segments no pin holds any more: a segment goes
// once, for each series it touches, safeT(series) has reached the
// segment's newest timestamp for that series (the sample is in a persisted
// chunk or past retention).
func (w *wal) dropSafe(safeT func(s *Series) int64) {
	kept := w.segments[:0]
	blocked := false
	for _, seg := range w.segments {
		// Delete strictly oldest-first so the on-disk set is always a
		// contiguous suffix and replay order stays trivial.
		if !blocked && !pinned(seg.pins, safeT) && w.fs.Remove(seg.name) == nil {
			w.stats.SegmentsDeleted++
			continue
		}
		blocked = true
		kept = append(kept, seg)
	}
	clear(w.segments[len(kept):])
	w.segments = kept
}

// holds reports whether the pin still keeps its file, given the series'
// watermark.
func (p pin) holds(safeT func(s *Series) int64) bool {
	return !p.s.gone && safeT(p.s) < p.maxT
}

// pinned reports whether any pin still holds its file.
func pinned(pins []pin, safeT func(s *Series) int64) bool {
	for _, p := range pins {
		if p.holds(safeT) {
			return true
		}
	}
	return false
}

// dropAll deletes every WAL segment, active one included — the clean-close
// path, taken only after every retained sample is persisted in chunk
// files.
func (w *wal) dropAll() error {
	var firstErr error
	for _, seg := range w.segments {
		if err := w.fs.Remove(seg.name); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			w.stats.SegmentsDeleted++
		}
	}
	w.segments = nil
	return firstErr
}

// walRecord is one decoded sample record.
type walRecord struct {
	name string
	t    int64
	v    uint64
}

// scanWALSegment parses a segment's bytes, calling fn for every intact
// sample record in order. It returns the count of replayed records; a torn
// or corrupt record stops the scan, counting one tear and the discarded
// byte tail in stats — never an error, because a tail past the last intact
// record is exactly what a crash mid-append leaves behind.
func scanWALSegment(buf []byte, stats *PersistStats, fn func(r walRecord)) {
	if len(buf) < walHeaderLen || string(buf[:len(walMagic)]) != walMagic {
		if len(buf) > 0 {
			stats.RecordsTruncated++
			stats.BytesTruncated += uint64(len(buf))
		}
		return
	}
	off := walHeaderLen
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < recOverhead {
			break // torn length/CRC prefix
		}
		plen := int(binary.LittleEndian.Uint32(rest[:4]))
		want := binary.LittleEndian.Uint32(rest[4:8])
		if plen < 1 || plen > len(rest)-recOverhead {
			break // torn or corrupt payload
		}
		payload := rest[recOverhead : recOverhead+plen]
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		if payload[0] == recSample && plen >= 1+2+16 {
			nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
			if 3+nameLen+16 == plen {
				fn(walRecord{
					name: string(payload[3 : 3+nameLen]),
					t:    int64(binary.LittleEndian.Uint64(payload[3+nameLen:])),
					v:    binary.LittleEndian.Uint64(payload[3+nameLen+8:]),
				})
				stats.RecordsReplayed++
			}
		}
		off += recOverhead + plen
	}
	if off < len(buf) {
		stats.RecordsTruncated++
		stats.BytesTruncated += uint64(len(buf) - off)
	}
}
