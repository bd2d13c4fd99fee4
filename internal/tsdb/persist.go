package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path"
	"sort"
	"strings"
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
// Chunk file layout (chunks-<seq>.dat, little-endian throughout):
//
//	header:  8-byte magic "dprocchk", 1-byte version
//	record:  u32 payload length, u32 CRC-32 (IEEE) of payload, payload
//	chunk payload (type 2): u8 type, u16 series-name length, name bytes,
//	         i64 TMin, i64 TMax, u64 First, u64 Last, u64 Min, u64 Max,
//	         u64 Sum (float bits), u32 Count, u32 data length, data
//	footer payload (type 3): u8 type, u32 chunk-record count,
//	         i64 file TMin, i64 file TMax
//
// The footer is the index: it is written only when a file is sealed
// cleanly (rotation or close), so its presence attests that every record
// before it is intact, and it carries the file's time range so retention
// can delete expired files without rescanning them. A file without a
// footer (crash while it was active) is scanned record by record and
// truncated at the first torn or corrupt record.

const (
	chunkMagic    = "dprocchk"
	chunkVersion  = 1
	recChunk      = 2
	recFooter     = 3
	chunkHdrLen   = len(chunkMagic) + 1
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

// chunkFileMeta is the in-memory handle on one sealed chunk file, enough
// to decide retention deletion without re-reading it.
type chunkFileMeta struct {
	seq  uint64
	name string
	pins []pin // newest TMax per series in the file
}

// durableState is what a durable DB keeps per series to decide which files
// are still load-bearing. It lives on the Series, reached through the
// handle the append already holds, so the write path looks nothing up by
// name.
type durableState struct {
	seen      bool   // seenT is set
	seenT     int64  // newest timestamp accepted: logged, or recovered
	persisted int64  // newest chunk-persisted timestamp
	walSeq    uint64 // newest WAL segment that lists the series in its pins
	cwSeq     uint64 // chunk file that lists it, and at which index
	cwPin     int
}

// sawT advances the newest accepted timestamp.
func (d *durableState) sawT(t int64) {
	if !d.seen || t > d.seenT {
		d.seen, d.seenT = true, t
	}
}

// persister owns a DB's on-disk state: the WAL and the chunk files. Like
// the wal, it is serialized entirely by db.mu.
type persister struct {
	fs             FS
	dir            string
	retention      int64 // ns; 0 = unbounded
	chunkFileBytes int   // rotation threshold for chunk files

	wal *wal

	cw        FileWriter // active chunk file (created lazily)
	cwSeq     uint64
	cwSize    int
	cwCount   uint32
	cwMin     int64
	cwMax     int64
	cwPins    []pin
	cwScratch []byte

	files []chunkFileMeta // sealed chunk files, ascending seq

	stats PersistStats
}

func chunkFileName(dir string, seq uint64) string {
	return path.Join(dir, fmt.Sprintf("chunks-%08d.dat", seq))
}

func newPersister(opts Options) *persister {
	p := &persister{
		fs:             opts.FS,
		dir:            opts.DataDir,
		retention:      opts.Retention.Nanoseconds(),
		chunkFileBytes: opts.ChunkFileBytes,
	}
	p.wal = &wal{
		fs:         opts.FS,
		dir:        opts.DataDir,
		fsyncEvery: opts.FsyncEvery,
		segBytes:   opts.WALSegmentBytes,
		stats:      &p.stats,
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
	if p.chunkFileBytes > 0 && p.cwSize >= p.chunkFileBytes {
		_ = p.sealChunkFile()
	}
}

// retire deletes the WAL segments and expired chunk files that nothing
// pins any more.
func (p *persister) retire() {
	p.wal.dropSafe(p.safeT)
	for p.sealQuiet() {
		p.wal.dropSafe(p.safeT)
	}
	p.evictFiles()
}

// sealQuiet is the quiet-series rule. Segments go oldest-first, and a series
// pins a segment until its head seals or its own newest sample moves a
// retention ahead — neither of which happens to a series that stopped
// reporting (a node that left), so one such series would hold the oldest
// segment, and with it the whole WAL, forever. Once the WAL has grown past
// walQuietSegments closed segments and every series still pinning the oldest
// has logged nothing in the newest walQuietSegments segments, those series'
// heads are sealed early — in memory and, as short chunk records, on disk —
// exactly what a clean close does to every head. A series that is merely
// slower than its neighbours keeps its head: it shows up in a recent segment.
// Reports whether any head was sealed.
func (p *persister) sealQuiet() bool {
	w := p.wal
	if len(w.segments) <= walQuietSegments {
		return false
	}
	oldest := w.segments[0].pins
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
// chunk file first if needed.
func (p *persister) writeChunkRecord(s *Series, c *Chunk) error {
	if p.cw == nil {
		if err := p.openChunkFile(); err != nil {
			return err
		}
	}
	sum := c.Summary()
	buf := appendChunkRecord(p.cwScratch[:0], s.name, sum, c.Data())
	p.cwScratch = buf[:0]
	n, err := p.cw.Write(buf)
	p.cwSize += n
	if err != nil {
		return err
	}
	p.cwCount++
	if p.cwCount == 1 || sum.TMin < p.cwMin {
		p.cwMin = sum.TMin
	}
	if sum.TMax > p.cwMax {
		p.cwMax = sum.TMax
	}
	if d := &s.durable; d.cwSeq != p.cwSeq {
		d.cwSeq, d.cwPin = p.cwSeq, len(p.cwPins)
		p.cwPins = append(p.cwPins, pin{s: s, maxT: sum.TMax})
	} else if sum.TMax > p.cwPins[d.cwPin].maxT {
		p.cwPins[d.cwPin].maxT = sum.TMax
	}
	p.stats.ChunksPersisted++
	p.stats.ChunkBytes += uint64(len(buf))
	return nil
}

func (p *persister) openChunkFile() error {
	p.cwSeq++
	fw, err := p.fs.Create(chunkFileName(p.dir, p.cwSeq))
	if err != nil {
		return err
	}
	hdr := append(p.cwScratch[:0], chunkMagic...)
	hdr = append(hdr, chunkVersion)
	if _, err := fw.Write(hdr); err != nil {
		_ = fw.Close()
		return err
	}
	p.cw = fw
	p.cwSize = chunkHdrLen
	p.cwCount = 0
	p.cwMin, p.cwMax = 0, 0
	return nil
}

// sealChunkFile writes the index footer, fsyncs and closes the active
// chunk file, making it immutable and retention-deletable.
func (p *persister) sealChunkFile() error {
	if p.cw == nil {
		return nil
	}
	buf := p.cwScratch[:0]
	payload := 1 + 4 + 8 + 8
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, recFooter)
	buf = binary.LittleEndian.AppendUint32(buf, p.cwCount)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.cwMin))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.cwMax))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	p.cwScratch = buf[:0]
	_, werr := p.cw.Write(buf)
	serr := p.cw.Sync()
	cerr := p.cw.Close()
	p.cw = nil
	p.files = append(p.files, chunkFileMeta{
		seq: p.cwSeq, name: chunkFileName(p.dir, p.cwSeq), pins: p.cwPins,
	})
	p.cwPins = nil
	p.stats.ChunkFilesSealed++
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// evictFiles deletes sealed chunk files whose every record is past its
// series' retention horizon — the on-disk twin of Series.evict.
func (p *persister) evictFiles() {
	if p.retention <= 0 {
		return
	}
	// A file is held while seenT-retention <= maxT; holds tests "< maxT".
	horizon := func(s *Series) int64 { return s.durable.seenT - p.retention - 1 }
	kept := p.files[:0]
	blocked := false
	for _, f := range p.files {
		// Delete oldest-first only, keep the set contiguous.
		if !blocked && !pinned(f.pins, horizon) && p.fs.Remove(f.name) == nil {
			p.stats.ChunkFilesDeleted++
			continue
		}
		blocked = true
		kept = append(kept, f)
	}
	clear(p.files[len(kept):])
	p.files = kept
}

// appendChunkRecord frames one chunk record onto buf — the only encoder of
// the chunk payload above.
func appendChunkRecord(buf []byte, name string, sum Summary, data []byte) []byte {
	start := len(buf)
	payload := 1 + 2 + len(name) + summaryEncLen + 4 + len(data)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, recChunk)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = appendSummary(buf, sum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+recOverhead:]))
	return buf
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

// scanChunkFile parses one chunk file, calling fn per intact chunk record.
// A torn or corrupt record truncates the scan (counted in stats); a valid
// footer ends it cleanly. Returns the per-series newest TMax map for
// retention bookkeeping.
func scanChunkFile(buf []byte, stats *PersistStats, fn func(r chunkRecord)) map[string]int64 {
	seriesMax := map[string]int64{}
	if len(buf) < chunkHdrLen || string(buf[:len(chunkMagic)]) != chunkMagic {
		if len(buf) > 0 {
			stats.RecordsTruncated++
			stats.BytesTruncated += uint64(len(buf))
		}
		return seriesMax
	}
	off := chunkHdrLen
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < recOverhead {
			break
		}
		plen := int(binary.LittleEndian.Uint32(rest[:4]))
		want := binary.LittleEndian.Uint32(rest[4:8])
		if plen < 1 || plen > len(rest)-recOverhead {
			break
		}
		payload := rest[recOverhead : recOverhead+plen]
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		off += recOverhead + plen
		if payload[0] == recFooter {
			return seriesMax // clean seal: nothing follows the footer
		}
		if payload[0] != recChunk || plen < 1+2+summaryEncLen+4 {
			continue
		}
		nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
		if 3+nameLen+summaryEncLen+4 > plen {
			continue
		}
		name := string(payload[3 : 3+nameLen])
		s := payload[3+nameLen:]
		var sum Summary
		sum.TMin = int64(binary.LittleEndian.Uint64(s[0:]))
		sum.TMax = int64(binary.LittleEndian.Uint64(s[8:]))
		sum.First = floatFromBits(binary.LittleEndian.Uint64(s[16:]))
		sum.Last = floatFromBits(binary.LittleEndian.Uint64(s[24:]))
		sum.Min = floatFromBits(binary.LittleEndian.Uint64(s[32:]))
		sum.Max = floatFromBits(binary.LittleEndian.Uint64(s[40:]))
		sum.Sum = floatFromBits(binary.LittleEndian.Uint64(s[48:]))
		sum.Count = int(binary.LittleEndian.Uint32(s[56:]))
		dataLen := int(binary.LittleEndian.Uint32(s[summaryEncLen:]))
		if 3+nameLen+summaryEncLen+4+dataLen != plen || sum.Count <= 0 {
			continue
		}
		data := make([]byte, dataLen)
		copy(data, s[summaryEncLen+4:])
		if sum.TMax > seriesMax[name] {
			seriesMax[name] = sum.TMax
		}
		fn(chunkRecord{name: name, sum: sum, data: data})
	}
	if off < len(buf) {
		stats.RecordsTruncated++
		stats.BytesTruncated += uint64(len(buf) - off)
	}
	return seriesMax
}

// recover rebuilds db's in-memory state from dir: chunk files in sequence
// order, then WAL segments replayed on top (idempotent thanks to the
// strictly-increasing-timestamp rule), truncating at the first torn record
// of each file. It then arms a fresh WAL segment for new appends.
func (p *persister) recover(db *DB) error {
	if err := p.fs.MkdirAll(p.dir); err != nil {
		return fmt.Errorf("tsdb: data dir: %w", err)
	}
	names, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("tsdb: data dir: %w", err)
	}
	var chunkFiles, walFiles []string
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "chunks-") && strings.HasSuffix(n, ".dat"):
			chunkFiles = append(chunkFiles, n)
		case strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log"):
			walFiles = append(walFiles, n)
		}
	}
	sort.Strings(chunkFiles)
	sort.Strings(walFiles)

	for _, fname := range chunkFiles {
		full := path.Join(p.dir, fname)
		buf, err := p.fs.ReadFile(full)
		if err != nil {
			return fmt.Errorf("tsdb: reading %s: %w", fname, err)
		}
		seriesMax := scanChunkFile(buf, &p.stats, func(r chunkRecord) {
			s := db.getOrCreate(r.name)
			if s.loadSealed(r.sum, r.data) {
				p.stats.ChunksLoaded++
				if r.sum.TMax > s.durable.persisted {
					s.durable.persisted = r.sum.TMax
				}
				s.durable.sawT(r.sum.TMax)
			} else {
				p.stats.ChunksSkipped++
			}
		})
		p.stats.ChunkFilesLoaded++
		seq := fileSeq(fname)
		pins := make([]pin, 0, len(seriesMax))
		for name, maxT := range seriesMax {
			pins = append(pins, pin{s: db.series[name], maxT: maxT}) // the scan created it
		}
		p.files = append(p.files, chunkFileMeta{seq: seq, name: full, pins: pins})
		if seq > p.cwSeq {
			p.cwSeq = seq
		}
	}

	var walSeq uint64
	for _, fname := range walFiles {
		full := path.Join(p.dir, fname)
		buf, err := p.fs.ReadFile(full)
		if err != nil {
			return fmt.Errorf("tsdb: reading %s: %w", fname, err)
		}
		// Replay goes through the wal's own pin bookkeeping, as if the
		// segment were the active one being closed.
		p.wal.seq = fileSeq(fname)
		scanWALSegment(buf, &p.stats, func(r walRecord) {
			// No re-logging, and already-covered records (chunk/WAL
			// overlap) are skipped without counting as drops.
			s := db.getOrCreate(r.name)
			if s.appendReplay(r.t, floatFromBits(r.v)) {
				s.durable.sawT(r.t)
				p.wal.touch(s)
			}
		})
		p.stats.SegmentsReplayed++
		p.wal.closeSegment(full)
		if p.wal.seq > walSeq {
			walSeq = p.wal.seq
		}
	}

	p.wal.seq = walSeq + 1
	// A dir that cannot be read fails the open (above); a dir that cannot
	// be written does not — the store comes up memory-only with the failure
	// counted, the same degradation a device dying mid-run produces.
	if err := p.wal.openSegment(); err != nil {
		p.stats.WALErrors++
	}
	// Replay may have sealed chunks into the active chunk file; segments
	// and expired files those seals unpinned can go now.
	p.retire()
	return nil
}

// close flushes everything for a clean shutdown: the still-open head
// chunks are persisted as (small) chunk records, the active chunk file is
// sealed with its footer, and — when all of that succeeded — every WAL
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
		if err := p.writeChunkRecord(s, s.head); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := p.sealChunkFile(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.wal.seal(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return firstErr // keep the WAL: replay still covers the heads
	}
	return p.wal.dropAll()
}

// fileSeq extracts the numeric sequence from "wal-00000001.log" /
// "chunks-00000001.dat"; 0 for malformed names.
func fileSeq(name string) uint64 {
	dash := strings.IndexByte(name, '-')
	dot := strings.LastIndexByte(name, '.')
	if dash < 0 || dot <= dash {
		return 0
	}
	var seq uint64
	for _, c := range name[dash+1 : dot] {
		if c < '0' || c > '9' {
			return 0
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq
}
