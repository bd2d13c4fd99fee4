// Disk faults: the storage-side counterpart of the fabric's network
// faults. Disk wraps the filesystem interface the tsdb persistence layer
// runs on (tsdb.FS) and applies a scripted fault plan to it — a torn write
// at a chosen byte offset (the on-disk image a kill -9 mid-append leaves
// behind), short reads (a truncated file surfacing on recovery), running
// out of space, fsync failures, and a power cut that keeps of every file only
// what its last fsync covered. As with the network fabric, nothing
// fires spontaneously: every fault is armed by an explicit call, so
// recovery tests replay the same failure byte-for-byte every run.

package faultnet

import (
	"errors"
	"strings"
	"sync"

	"dproc/internal/tsdb"
)

// Disk fault errors, distinguishable by callers asserting on failure modes.
var (
	// ErrDiskTorn is returned by the write that was cut short by a torn-write
	// rule, and by every write after it (the "device" is gone).
	ErrDiskTorn = errors.New("faultnet: torn write (disk gone)")
	// ErrNoSpace is returned once a LimitSpace budget is exhausted.
	ErrNoSpace = errors.New("faultnet: no space left on device")
	// ErrSyncFailed is returned by Sync while FailSyncs is armed.
	ErrSyncFailed = errors.New("faultnet: fsync failed")
)

// DiskStats is a snapshot of the injector's fault counters.
type DiskStats struct {
	WritesTorn     uint64 // writes truncated by a torn-write rule
	WritesRefused  uint64 // writes refused after the disk died
	ReadsTruncated uint64 // reads shortened by a short-read rule
	SyncFailures   uint64
	BytesWritten   uint64 // bytes that actually reached the base FS
}

// Disk is a tsdb.FS with scripted fault injection, layered over a base
// filesystem (the real one in recovery tests). All methods are safe for
// concurrent use.
type Disk struct {
	mu   sync.Mutex
	base tsdb.FS

	tornMatch  string // substring of the file path the torn-write rule applies to
	tornAt     int    // per-file byte offset of the tear; -1 = unarmed
	dead       bool   // set once a tear fires: every later write fails
	spaceLeft  int    // remaining writable bytes; -1 = unlimited
	shortMatch string
	shortAt    int // max bytes ReadFile returns for matching files; -1 = unarmed
	failSync   bool

	written map[string]int // per-file bytes written, for tear offset accounting
	synced  map[string]int // per-file bytes the last successful Sync covered
	stats   DiskStats
}

// NewDisk wraps base (tsdb.OSFS{} if nil) with an initially fault-free
// injector.
func NewDisk(base tsdb.FS) *Disk {
	if base == nil {
		base = tsdb.OSFS{}
	}
	return &Disk{base: base, tornAt: -1, spaceLeft: -1, shortAt: -1, written: map[string]int{}, synced: map[string]int{}}
}

// TearWriteAt arms the torn-write rule: the first write to a file whose
// path contains match that would cross byte offset of that file is
// truncated exactly at the boundary, returns ErrDiskTorn, and kills the
// disk — every subsequent write fails, modeling the process (or device)
// dying mid-append. Empty match applies to every file; offset counts bytes
// written to the file through this injector.
func (d *Disk) TearWriteAt(match string, offset int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornMatch, d.tornAt = match, offset
	d.dead = false
}

// LimitSpace allows n more bytes of writes across all files, after which
// writes are truncated and fail with ErrNoSpace. Negative n removes the
// limit.
func (d *Disk) LimitSpace(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spaceLeft = n
}

// ShortReads makes ReadFile return at most n bytes for files whose path
// contains match — the truncated tail a recovery scan must tolerate.
// Negative n disarms the rule.
func (d *Disk) ShortReads(match string, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shortMatch, d.shortAt = match, n
}

// FailSyncs makes every Sync fail with ErrSyncFailed while armed.
func (d *Disk) FailSyncs(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failSync = on
}

// PowerCut is the machine losing power: every file created through the
// injector that is still on disk is cut back to the length its last
// successful Sync covered — zero for one never synced — which is what the
// device is guaranteed to hold. Directory entries are taken as durable (a
// removed file stays removed, a created one stays). Whatever wrote the files
// must not touch them afterwards; reopen the directory instead.
func (d *Disk) PowerCut() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, n := range d.written {
		keep := d.synced[name]
		if n <= keep {
			continue
		}
		buf, err := d.base.ReadFile(name)
		if err != nil {
			continue // removed since: nothing to cut back
		}
		fw, err := d.base.Create(name)
		if err != nil {
			return err
		}
		_, err = fw.Write(buf[:min(keep, len(buf))])
		if cerr := fw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		d.written[name] = keep
	}
	return nil
}

// Stats returns the current fault counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// --- tsdb.FS implementation ---

// MkdirAll implements tsdb.FS.
func (d *Disk) MkdirAll(dir string) error { return d.base.MkdirAll(dir) }

// ReadDir implements tsdb.FS.
func (d *Disk) ReadDir(dir string) ([]string, error) { return d.base.ReadDir(dir) }

// Remove implements tsdb.FS.
func (d *Disk) Remove(name string) error { return d.base.Remove(name) }

// ReadFile implements tsdb.FS, applying the short-read rule.
func (d *Disk) ReadFile(name string) ([]byte, error) {
	buf, err := d.base.ReadFile(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.shortAt >= 0 && strings.Contains(name, d.shortMatch) && len(buf) > d.shortAt {
		d.stats.ReadsTruncated++
		buf = buf[:d.shortAt]
	}
	return buf, nil
}

// Create implements tsdb.FS; the returned writer applies the write-side
// fault plan.
func (d *Disk) Create(name string) (tsdb.FileWriter, error) {
	fw, err := d.base.Create(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.written[name], d.synced[name] = 0, 0
	d.mu.Unlock()
	return &diskFile{disk: d, name: name, fw: fw}, nil
}

type diskFile struct {
	disk *Disk
	name string
	fw   tsdb.FileWriter
}

func (f *diskFile) Write(p []byte) (int, error) {
	d := f.disk
	d.mu.Lock()
	if d.dead {
		d.stats.WritesRefused++
		d.mu.Unlock()
		return 0, ErrDiskTorn
	}
	allow := len(p)
	var failure error
	off := d.written[f.name]
	if d.tornAt >= 0 && strings.Contains(f.name, d.tornMatch) && off+allow > d.tornAt {
		if cut := d.tornAt - off; cut < allow {
			allow = cut
		}
		if allow < 0 {
			allow = 0
		}
		d.dead = true
		d.stats.WritesTorn++
		failure = ErrDiskTorn
	}
	if d.spaceLeft >= 0 && allow > d.spaceLeft {
		allow = d.spaceLeft
		failure = ErrNoSpace
	}
	d.mu.Unlock()

	n, err := f.fw.Write(p[:allow])

	d.mu.Lock()
	d.written[f.name] += n
	d.stats.BytesWritten += uint64(n)
	if d.spaceLeft >= 0 {
		d.spaceLeft -= n
	}
	d.mu.Unlock()
	if err != nil {
		return n, err
	}
	if failure != nil {
		return n, failure
	}
	return n, nil
}

func (f *diskFile) Sync() error {
	d := f.disk
	d.mu.Lock()
	fail := d.failSync || d.dead
	if fail {
		d.stats.SyncFailures++
	}
	covered := d.written[f.name]
	d.mu.Unlock()
	if fail {
		return ErrSyncFailed
	}
	if err := f.fw.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	d.synced[f.name] = covered
	d.mu.Unlock()
	return nil
}

func (f *diskFile) Close() error { return f.fw.Close() }
