package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Chunk files persist sealed Gorilla chunks verbatim: when a series seals
// its head chunk (and on clean close, for the still-open heads), the
// compressed bytes and the chunk summary are framed, CRC'd and appended to
// the active chunk file. Reopening a DB loads chunk files first, then
// replays the WAL on top; the strictly-increasing-timestamp rule makes
// replay idempotent, so chunk/WAL overlap is harmless.
//
// They are a segmented record log (seglog.go: chunks-<seq>.dat, magic
// "dprocchk") with two payloads:
//
//	chunk (type 2): u8 type, u16 series-name length, name bytes,
//	         i64 TMin, i64 TMax, u64 First, u64 Last, u64 Min, u64 Max,
//	         u64 Sum (float bits), u32 Count, u32 data length, data
//	footer (type 3): u8 type, u32 chunk-record count,
//	         i64 file TMin, i64 file TMax
//
// The footer is written only when a file is sealed cleanly (rotation or
// close): it marks the seal and ends the scan of the file. Its count and
// time range are written because format v1 has them; nothing reads them —
// recovery reads every file whole and rebuilds the pins from the chunk
// records — and a frame v2 should drop them. A file without a footer (crash
// while it was active) is scanned to the first torn or corrupt record like
// any other.

const (
	chunkMagic    = "dprocchk"
	chunkVersion  = 1
	recChunk      = 2
	recFooter     = 3
	summaryEncLen = 8*7 + 4 // TMin..Sum + Count
)

// DefaultChunkFileBytes is the chunk-file rotation threshold when
// Options.ChunkFileBytes is zero.
const DefaultChunkFileBytes = 4 << 20

// PersistStats counts the persistence layer's work: the recovery figures
// filled in by Open (segments replayed, records truncated at tears, chunks
// loaded) and the steady-state append/fsync/eviction counters. All zeros
// for a memory-only DB.
type PersistStats struct {
	// Recovery (set while opening an existing data dir).
	SegmentsReplayed uint64 // WAL segments scanned on open
	RecordsReplayed  uint64 // intact WAL records applied on open
	RecordsTruncated uint64 // torn/corrupt tails discarded (tear events)
	BytesTruncated   uint64 // bytes discarded at tears
	ChunkFilesLoaded uint64
	ChunksLoaded     uint64 // chunk records loaded into series
	ChunksSkipped    uint64 // chunk records ignored (out of order)

	// Steady state.
	WALAppends        uint64 // sample records logged
	WALBytes          uint64 // bytes of those records
	WALWrites         uint64 // writes that carried them (one per batch)
	WALErrors         uint64 // failed WAL/chunk writes (sample stays in memory)
	Fsyncs            uint64
	SegmentsSealed    uint64
	SegmentsDeleted   uint64
	ChunksPersisted   uint64
	ChunkBytes        uint64
	ChunkFilesSealed  uint64
	ChunkFilesDeleted uint64 // expired whole files removed by retention
}

// durableState is what a durable DB keeps per series to decide which files
// are still load-bearing. It lives on the Series, reached through the
// handle the append already holds, so the write path looks nothing up by
// name.
type durableState struct {
	seenT     int64  // newest timestamp accepted: logged, or recovered
	persisted int64  // newest chunk-persisted timestamp
	walSeq    uint64 // newest WAL segment that lists the series in its pins
	cwSeq     uint64 // newest chunk file that does
	crcLead   uint32 // sampleLead(name): its sample records' CRCs' own part
	seen      bool   // seenT is set
}

// sawT advances the newest accepted timestamp.
func (d *durableState) sawT(t int64) {
	if !d.seen || t > d.seenT {
		d.seen, d.seenT = true, t
	}
}

// persister owns a DB's on-disk state: the WAL and the chunk files. Like
// the two logs, it is serialized entirely by db.mu.
type persister struct {
	fs        FS
	dir       string
	retention int64 // ns; 0 = unbounded

	wal    wal
	chunks seglog

	// The active chunk file's footer fields, whether it holds records not
	// yet synced, and the chunk encoder's buffer.
	cwCount      uint32
	cwMin, cwMax int64
	cwUnsynced   bool
	scratch      []byte

	stats PersistStats
}

func newPersister(opts Options) *persister {
	p := &persister{fs: opts.FS, dir: opts.DataDir, retention: opts.Retention.Nanoseconds()}
	st := &p.stats
	p.wal = wal{fsyncEvery: opts.FsyncEvery, seglog: seglog{
		fs: p.fs, dir: p.dir, prefix: "wal-", ext: ".log",
		header: append([]byte(walMagic), walVersion), rotateBytes: opts.WALSegmentBytes,
		newest: func(s *Series) int64 { return s.durable.seenT },
		stats:  st, loaded: &st.SegmentsReplayed, sealed: &st.SegmentsSealed, removed: &st.SegmentsDeleted, fsyncs: &st.Fsyncs,
	}}
	p.chunks = seglog{
		fs: p.fs, dir: p.dir, prefix: "chunks-", ext: ".dat",
		header: append([]byte(chunkMagic), chunkVersion), rotateBytes: opts.ChunkFileBytes,
		newest: func(s *Series) int64 { return s.durable.persisted },
		stats:  st, loaded: &st.ChunkFilesLoaded, sealed: &st.ChunkFilesSealed, removed: &st.ChunkFilesDeleted,
	}
	return p
}

// safeT is the watermark under which a series' samples no longer need the
// WAL: persisted into a chunk file, or past the retention horizon.
func (p *persister) safeT(s *Series) int64 {
	safe := s.durable.persisted
	if p.retention > 0 {
		if cut := s.durable.seenT - p.retention; cut > safe {
			safe = cut
		}
	}
	return safe
}

// expiredT is the watermark under which a series' chunks are past its
// retention horizon (a chunk is kept while seenT-retention <= its TMax; a pin
// holds while the watermark is below its maxT).
func (p *persister) expiredT(s *Series) int64 { return s.durable.seenT - p.retention - 1 }

// persistChunk appends one sealed chunk to the active chunk file and
// advances the series watermark. What the new watermark unpins is retired
// by the caller's retire pass — one per batch, however many series sealed
// in it.
func (p *persister) persistChunk(s *Series, c *Chunk) {
	if err := p.writeChunkRecord(s, c); err != nil {
		p.stats.WALErrors++
		return
	}
	if tmax := c.Summary().TMax; tmax > s.durable.persisted {
		s.durable.persisted = tmax
	}
	if p.chunks.full(0) {
		if err := p.sealChunkFile(p.wal.fsyncEvery > 0); err != nil {
			p.stats.WALErrors++
		}
	}
}

// retire deletes the WAL segments nothing pins any more and the chunk files
// whose every record is past its series' retention horizon — the on-disk twin
// of Series.evict. A file that could not be removed is tried again on the
// next pass.
func (p *persister) retire() {
	p.retireWAL()
	for p.sealQuiet() {
		p.retireWAL()
	}
	if p.retention > 0 {
		_ = p.chunks.retire(p.expiredT, nil)
	}
}

// retireWAL deletes the WAL segments nothing pins any more. At a cadence
// their records were acknowledged as fsynced, so the chunk records that
// released them must be on the device before they go: before the first
// deletion of a pass the chunk files are synced — nothing to do unless
// records were written since the last sync or a rotation's fsync failed —
// and if that fails no segment goes this pass. Without a cadence nothing is
// synced on its own, and a deletion waits for no device.
func (p *persister) retireWAL() {
	_ = p.wal.retire(p.safeT, p.chunksBeforeRetire)
}

// chunksBeforeRetire is retireWAL's hook: syncChunks at a cadence, a
// failure counted.
func (p *persister) chunksBeforeRetire() error {
	if p.wal.fsyncEvery <= 0 {
		return nil
	}
	err := p.syncChunks()
	if err != nil {
		p.stats.WALErrors++
	}
	return err
}

// syncChunks puts every chunk record written so far on the device: the
// chunk files sealed without a successful fsync, then the active one if it
// was written since its last sync.
func (p *persister) syncChunks() error {
	if err := p.chunks.syncSealed(); err != nil {
		return err
	}
	if p.cwUnsynced {
		if err := p.chunks.sync(p.chunks.w); err != nil {
			return err
		}
		p.cwUnsynced = false
	}
	return nil
}

// flush makes everything appended so far durable, at every cadence: the
// active WAL segment is sealed with an fsync when it holds records, and
// every file a rotation left without one is synced. The chunk files go
// first, since the retirement pass then deletes the segments their records
// released; the segments still on disk after it are synced next, then the
// chunk records the pass itself wrote (heads of quiet series), if any.
func (p *persister) flush() error {
	w := &p.wal
	// Only an active segment holding records needs sealing; rotating an
	// empty segment would just churn files (and fsyncs) for nothing.
	if w.size > headerLen {
		if err := w.rotate(true); err != nil {
			return err
		}
	}
	if err := p.syncChunks(); err != nil {
		return err
	}
	p.retire()
	if err := w.syncSealed(); err != nil {
		return err
	}
	return p.syncChunks()
}

// sealQuiet is the quiet-series rule. A series pins a segment until its head
// seals or its own newest sample moves a retention ahead — neither of which
// happens to a series that stopped reporting (a node that left), so each such
// series strands the segment with its last samples, replayed whole on every
// open, forever. Once the WAL has grown past walQuietSegments closed segments
// and every series still pinning the oldest has logged nothing in the newest
// walQuietSegments segments, those series' heads are sealed early — in memory
// and, as short chunk records, on disk — exactly what a clean close does to
// every head. A series that is merely slower than its neighbours keeps its
// head: it shows up in a recent segment. Reports whether any head was sealed.
//
// Chunk files have no such rule and need none: the chunks a quiet series
// leaves behind are within its retention and rightly kept, in the one or two
// files that hold them.
func (p *persister) sealQuiet() bool {
	w := &p.wal
	if len(w.closed) <= walQuietSegments {
		return false
	}
	oldest := w.closed[0].pins
	for _, pn := range oldest {
		if pn.holds(p.safeT) && pn.s.durable.walSeq+walQuietSegments > w.seq {
			return false
		}
	}
	sealed := false
	for _, pn := range oldest {
		if pn.holds(p.safeT) && pn.s.head.summary.Count > 0 {
			pn.s.sealHead()
			sealed = true
		}
	}
	return sealed
}

// writeChunkRecord frames and writes one chunk record, opening the active
// chunk file first if needed (chunk files are created lazily, so a store
// that seals nothing leaves none).
func (p *persister) writeChunkRecord(s *Series, c *Chunk) error {
	l := &p.chunks
	if l.w == nil {
		if err := l.open(); err != nil {
			return err
		}
	}
	sum := c.Summary()
	buf := appendChunkRecord(p.scratch[:0], s.name, sum, c.Data())
	p.scratch = buf[:0]
	if _, err := l.write(buf); err != nil {
		return err
	}
	l.touch(s, &s.durable.cwSeq)
	p.cwUnsynced = true
	p.cwCount++
	if p.cwCount == 1 || sum.TMin < p.cwMin {
		p.cwMin = sum.TMin
	}
	if sum.TMax > p.cwMax {
		p.cwMax = sum.TMax
	}
	p.stats.ChunksPersisted++
	p.stats.ChunkBytes += uint64(len(buf))
	return nil
}

// sealChunkFile writes the footer and seals the active chunk file (synced
// when sync is set), making it immutable and retention-deletable. Its
// records stop counting as the active file's unsynced ones: one sealed
// without a successful fsync is still open on the closed list, where
// syncChunks finds it.
func (p *persister) sealChunkFile(sync bool) error {
	l := &p.chunks
	if l.w == nil {
		return nil
	}
	buf := append(p.scratch[:0], recordPrefix[:]...)
	buf = append(buf, recFooter)
	buf = binary.LittleEndian.AppendUint32(buf, p.cwCount)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.cwMin))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.cwMax))
	p.scratch = buf[:0]
	p.cwCount, p.cwMin, p.cwMax, p.cwUnsynced = 0, 0, 0, false
	_, err := l.write(frameRecord(buf, 0, crc32.ChecksumIEEE(buf[recOverhead:])))
	if sealErr := l.seal(sync); err == nil {
		err = sealErr
	}
	return err
}

// appendChunkRecord frames one chunk record onto buf — the only encoder of
// the chunk payload above.
func appendChunkRecord(buf []byte, name string, sum Summary, data []byte) []byte {
	start := len(buf)
	buf = append(buf, recordPrefix[:]...)
	buf = append(buf, recChunk)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = appendSummary(buf, sum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	return frameRecord(buf, start, crc32.ChecksumIEEE(buf[start+recOverhead:]))
}

func appendSummary(buf []byte, s Summary) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.TMin))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.TMax))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.First))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Last))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Min))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Max))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(s.Sum))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Count))
	return buf
}

// chunkRecord is one decoded chunk-file record.
type chunkRecord struct {
	name string
	sum  Summary
	data []byte
}

// decodeChunk parses a chunk-file payload: a chunk record (ok), the footer
// (end: the file was sealed cleanly, nothing follows), or neither — a
// foreign or malformed record, skipped, not a tear: its CRC was good.
func decodeChunk(payload []byte) (r chunkRecord, ok, end bool) {
	if payload[0] == recFooter {
		return r, false, true
	}
	if payload[0] != recChunk || len(payload) < 1+2+summaryEncLen+4 {
		return r, false, false
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+nameLen+summaryEncLen+4 > len(payload) {
		return r, false, false
	}
	s := payload[3+nameLen:]
	r.name = string(payload[3 : 3+nameLen])
	r.sum.TMin = int64(binary.LittleEndian.Uint64(s[0:]))
	r.sum.TMax = int64(binary.LittleEndian.Uint64(s[8:]))
	r.sum.First = floatFromBits(binary.LittleEndian.Uint64(s[16:]))
	r.sum.Last = floatFromBits(binary.LittleEndian.Uint64(s[24:]))
	r.sum.Min = floatFromBits(binary.LittleEndian.Uint64(s[32:]))
	r.sum.Max = floatFromBits(binary.LittleEndian.Uint64(s[40:]))
	r.sum.Sum = floatFromBits(binary.LittleEndian.Uint64(s[48:]))
	r.sum.Count = int(binary.LittleEndian.Uint32(s[56:]))
	dataLen := int(binary.LittleEndian.Uint32(s[summaryEncLen:]))
	if 3+nameLen+summaryEncLen+4+dataLen != len(payload) || r.sum.Count <= 0 {
		return r, false, false
	}
	r.data = append([]byte(nil), s[summaryEncLen+4:]...)
	return r, true, false
}

// recover rebuilds db's in-memory state from dir: chunk files in name order,
// then WAL segments replayed on top (idempotent thanks to the
// strictly-increasing-timestamp rule), each file truncated at its first torn
// record. It then arms a fresh WAL segment for new appends.
func (p *persister) recover(db *DB) error {
	if err := p.fs.MkdirAll(p.dir); err != nil {
		return fmt.Errorf("tsdb: data dir: %w", err)
	}
	names, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("tsdb: data dir: %w", err)
	}
	sort.Strings(names)
	err = p.chunks.load(names, func(payload []byte) bool {
		r, ok, end := decodeChunk(payload)
		if ok {
			s := db.getOrCreate(r.name)
			p.chunks.touch(s, &s.durable.cwSeq)
			if s.loadSealed(r.sum, r.data) {
				p.stats.ChunksLoaded++
				if r.sum.TMax > s.durable.persisted {
					s.durable.persisted = r.sum.TMax
				}
				s.durable.sawT(r.sum.TMax)
			} else {
				p.stats.ChunksSkipped++
			}
		}
		return !end
	})
	if err != nil {
		return err
	}
	err = p.wal.load(names, func(payload []byte) bool {
		if r, ok := decodeSample(payload); ok {
			p.stats.RecordsReplayed++
			// No re-logging, and already-covered records (chunk/WAL
			// overlap) are skipped without counting as drops. The lookup
			// by a converted view does not copy the name.
			s := db.series[string(r.name)]
			if s == nil {
				s = db.getOrCreate(string(r.name))
			}
			if s.appendReplay(r.t, floatFromBits(r.v)) {
				s.durable.sawT(r.t)
				p.wal.touch(s, &s.durable.walSeq)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// A dir that cannot be read fails the open (above); a dir that cannot
	// be written does not — the store comes up memory-only with the failure
	// counted, the same degradation a device dying mid-run produces.
	if err := p.wal.open(); err != nil {
		p.stats.WALErrors++
	}
	// Replay may have sealed chunks into the active chunk file; segments
	// and expired files those seals unpinned can go now.
	p.retire()
	return nil
}

// close flushes everything for a clean shutdown: the still-open head
// chunks are persisted as (small) chunk records, the active chunk file is
// sealed with its footer and, with every chunk file a rotation left
// unsynced, put on the device, and — when all of that succeeded — every WAL
// segment is deleted, so the next open loads chunk files only and replays
// nothing.
func (p *persister) close(series map[string]*Series) error {
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		s := series[name]
		if s.head.summary.Count == 0 {
			continue
		}
		// The watermark stays: should a later step fail, the WAL is kept
		// and still covers the heads.
		if err := p.writeChunkRecord(s, &s.head); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := p.sealChunkFile(true); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.chunks.syncSealed(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.wal.seal(true); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		// Keep the WAL, on the device: replay still covers the heads.
		_ = p.wal.syncSealed()
		return firstErr
	}
	return p.wal.retire(func(*Series) int64 { return math.MaxInt64 }, nil)
}
