package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path"
	"strings"
)

// The segmented record log: the one mechanism under both file kinds of a
// durable DB, the write-ahead log (wal.go) and the chunk files (persist.go).
// A log is a directory's files <prefix><8-digit seq><ext>, each created
// once, written sequentially, never reopened for append and only ever read
// back whole (little-endian throughout):
//
//	header:  8-byte magic, 1-byte version
//	record:  u32 payload length, u32 CRC-32 (IEEE) of payload, payload
//
// The first payload byte is the record type; the two kinds differ in their
// magic and their payloads, nothing else. The active file is sealed when it
// passes the rotation threshold — fsynced and closed when the DB's policy
// asks for an fsync, otherwise kept open until a later sync writes it out or
// its removal closes it — and stays on disk as a closed file with a pin list:
// each series with records in it and the newest timestamp of those. A
// closed file is removed as soon as no pin holds it, in whatever order that
// happens: recovery replays the files it finds in name order and the
// strictly-increasing-timestamp rule makes that idempotent, so a gap in the
// sequence is harmless — what a removed file held was, by the pin rule,
// persisted elsewhere or past retention.
//
// On open every file is scanned record by record; the first torn or corrupt
// record ends that file's scan and is counted, never an error, because a
// tail past the last intact record is exactly what a crash mid-append leaves
// behind (the bytes past a tear are by definition unacknowledged).
//
// A seglog has no lock of its own: the owning DB serializes every call under
// db.mu.

const (
	magicLen    = 8
	headerLen   = magicLen + 1
	recOverhead = 8 // length + CRC prefix
)

// pin ties a closed file to one series with records in it: the file is
// load-bearing until the series' watermark reaches maxT, the newest of those
// records — or the series is dropped.
type pin struct {
	s    *Series
	maxT int64
}

// closedFile is one sealed (or recovered) file still on disk.
type closedFile struct {
	name string // file path
	pins []pin
	// w is the file, still open, while it may hold bytes the device does
	// not: it was sealed without an fsync, or its fsync failed. nil once
	// synced and closed, and for a recovered file.
	w FileWriter
}

// seglog is one such log: what tells its kind from the other, the active
// file, and the closed files with their pins.
type seglog struct {
	fs          FS
	dir         string
	prefix, ext string
	header      []byte // magic + version, as written to every new file
	rotateBytes int    // a file at or past this size is full
	// newest reads the per-series timestamp a pin's maxT is taken from when
	// a file closes: the newest the series has put into this log so far. It
	// only grows within a series, so at that moment it is the series' newest
	// record in the file.
	newest func(s *Series) int64

	seq     uint64     // newest file created (or recovered); open starts seq+1
	w       FileWriter // the active file; nil when there is none
	size    int        // bytes written to it
	touched []pin      // series with records in it (maxT set when it closes)
	closed  []closedFile

	stats *PersistStats
	// This kind's counters in stats. Fsyncs counts the WAL's only (nil for
	// chunk files).
	loaded, sealed, removed, fsyncs *uint64
}

// name is the path of file l.seq.
func (l *seglog) name() string {
	return path.Join(l.dir, fmt.Sprintf("%s%08d%s", l.prefix, l.seq, l.ext))
}

// open starts the next file. On failure there is no active file until the
// next open.
func (l *seglog) open() error {
	l.seq++
	fw, err := l.fs.Create(l.name())
	if err != nil {
		return err
	}
	if _, err := fw.Write(l.header); err != nil {
		_ = fw.Close()
		return err
	}
	l.w, l.size = fw, headerLen
	return nil
}

// recordPrefix reserves a record's length and CRC on an encoder's buffer;
// frameRecord fills them in once the payload is behind them.
var recordPrefix [recOverhead]byte

// frameRecord completes the record whose prefix starts at buf[start] and
// whose payload runs to the end of buf; crc is the payload's CRC-32.
func frameRecord(buf []byte, start int, crc uint32) []byte {
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-recOverhead))
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// write appends buf — whole framed records — to the active file.
func (l *seglog) write(buf []byte) (int, error) {
	n, err := l.w.Write(buf)
	l.size += n
	return n, err
}

// full reports whether the active file, with pending more bytes, has reached
// the rotation threshold.
func (l *seglog) full(pending int) bool { return l.size+pending >= l.rotateBytes }

// touch lists s in the active file's pins, once per file: mark is the
// series' note of the newest file of this log that lists it.
func (l *seglog) touch(s *Series, mark *uint64) {
	// Sequence 0 is a recovered file with a malformed name: it matches the
	// "never listed" mark, so list unconditionally (a duplicate pin is
	// harmless).
	if *mark != l.seq || l.seq == 0 {
		*mark = l.seq
		l.touched = append(l.touched, pin{s: s})
	}
}

// seal ends the active file, which stays on disk until nothing pins it.
// With sync it is fsynced and closed; without — or when the fsync fails — it
// stays open on the closed list until syncSealed writes it out or retire
// removes it. There is no active file until open runs again. Whether a seal
// syncs is the owning DB's policy (DESIGN §10): a size rotation only at an
// fsync cadence, Flush and Close always.
func (l *seglog) seal(sync bool) error {
	if l.w == nil {
		return nil
	}
	fw := l.w
	l.w = nil
	var err error
	if sync {
		if err = l.sync(fw); err == nil {
			err = fw.Close()
			fw = nil
		}
	}
	l.adopt(l.name(), fw)
	*l.sealed++
	return err
}

// sync fsyncs one of this log's files, counting it.
func (l *seglog) sync(fw FileWriter) error {
	if err := fw.Sync(); err != nil {
		return err
	}
	if l.fsyncs != nil {
		*l.fsyncs++
	}
	return nil
}

// syncSealed fsyncs and closes the closed files still open, oldest first.
// One whose fsync fails stays open for the next call; the first error is
// returned.
func (l *seglog) syncSealed() error {
	var firstErr error
	for i := range l.closed {
		f := &l.closed[i]
		if f.w == nil {
			continue
		}
		err := l.sync(f.w)
		if err == nil {
			err = f.w.Close() // the bytes are on the device: nothing left to retry
			f.w = nil
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// adopt moves file l.seq, stored at name, to the closed list, with the
// series touched while it was the current one as its pins; fw is the file
// if it is still open.
func (l *seglog) adopt(name string, fw FileWriter) {
	for i := range l.touched {
		l.touched[i].maxT = l.newest(l.touched[i].s)
	}
	l.closed = append(l.closed, closedFile{name: name, pins: l.touched, w: fw})
	l.touched = make([]pin, 0, len(l.touched))
}

// retire removes every closed file no pin holds any more: for each series
// with records in it, safeT(series) has reached the newest of them. A file
// still open is closed first, unsynced: what it held is no longer needed.
// beforeRemove, if set, runs once, before the first removal; when it fails
// nothing is removed and its error is returned. A file that cannot be
// removed stays listed for the next pass; the first such error is returned.
func (l *seglog) retire(safeT func(s *Series) int64, beforeRemove func() error) error {
	var firstErr error
	kept := l.closed[:0]
	for _, f := range l.closed {
		if !pinned(f.pins, safeT) {
			if beforeRemove != nil {
				if err := beforeRemove(); err != nil {
					return err // nothing removed yet: kept is still l.closed's prefix
				}
				beforeRemove = nil
			}
			if f.w != nil {
				_ = f.w.Close()
				f.w = nil
			}
			err := l.fs.Remove(f.name)
			if err == nil {
				*l.removed++
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		kept = append(kept, f)
	}
	clear(l.closed[len(kept):])
	l.closed = kept
	return firstErr
}

// holds reports whether the pin still keeps its file, given the series'
// watermark.
func (p pin) holds(safeT func(s *Series) int64) bool {
	return !p.s.gone && safeT(p.s) < p.maxT
}

// pinned reports whether any pin still holds its file. It stops at the first
// that does, so a file of live series is refused in O(1).
func pinned(pins []pin, safeT func(s *Series) int64) bool {
	for _, p := range pins {
		if p.holds(safeT) {
			return true
		}
	}
	return false
}

// walkRecords hands fn the payload (never empty) of each intact record
// leading buf, in order, until fn returns false — stopped — or a record is
// torn or corrupt. n is the length of the prefix it consumed.
func walkRecords(buf []byte, fn func(payload []byte) bool) (n int, stopped bool) {
	for len(buf)-n >= recOverhead {
		plen := int(binary.LittleEndian.Uint32(buf[n:]))
		if plen < 1 || plen > len(buf)-n-recOverhead {
			break // torn or corrupt length
		}
		payload := buf[n+recOverhead : n+recOverhead+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[n+4:]) {
			break
		}
		n += recOverhead + plen
		if !fn(payload) {
			return n, true
		}
	}
	return n, false
}

// scanFile walks one file's bytes: the magic is checked (any version byte is
// taken), then every intact record's payload goes to fn until fn returns
// false — a clean end, nothing after it is looked at. Whatever else stops the
// walk short of the end of buf, a foreign header included, is one tear:
// counted in stats with the byte tail it discards.
func scanFile(buf, magic []byte, stats *PersistStats, fn func(payload []byte) bool) {
	off := 0
	if len(buf) >= headerLen && string(buf[:magicLen]) == string(magic) {
		n, stopped := walkRecords(buf[headerLen:], fn)
		if stopped {
			return
		}
		off = headerLen + n
	}
	if off < len(buf) {
		stats.RecordsTruncated++
		stats.BytesTruncated += uint64(len(buf) - off)
	}
}

// load reads back this log's files among names (a sorted directory listing)
// for recovery. Each is scanned as if it were the active file being written
// — apply gets every intact payload and touches the series it finds records
// of — and then adopted as closed.
func (l *seglog) load(names []string, apply func(payload []byte) bool) error {
	var last uint64
	for _, fname := range names {
		if !strings.HasPrefix(fname, l.prefix) || !strings.HasSuffix(fname, l.ext) {
			continue
		}
		full := path.Join(l.dir, fname)
		buf, err := l.fs.ReadFile(full)
		if err != nil {
			return fmt.Errorf("tsdb: reading %s: %w", fname, err)
		}
		l.seq = fileSeq(fname)
		scanFile(buf, l.header[:magicLen], l.stats, apply)
		l.adopt(full, nil)
		*l.loaded++
		last = max(last, l.seq)
	}
	l.seq = last
	return nil
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
