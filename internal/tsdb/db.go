package tsdb

import (
	"strings"
	"sync"
)

// DB is a concurrency-safe collection of named series sharing one Options
// set. dmon.Store keys series as "<node>/<metric>"; any string works.
//
// With Options.DataDir set (via Open), the DB is durable: accepted appends
// are write-ahead logged before they reach the head chunk, sealed chunks
// are persisted verbatim to chunk files, and Open replays both on restart,
// truncating at the first torn record instead of failing. See seglog.go,
// wal.go and persist.go for the on-disk format; DESIGN.md §10 for the
// invariants.
type DB struct {
	mu      sync.RWMutex
	opts    Options
	series  map[string]*Series
	persist *persister // nil = memory-only
	closed  bool
}

// NewDB returns an empty memory-only store; series are created on first
// append. Use Open for a durable store.
func NewDB(opts Options) *DB {
	opts.DataDir = ""
	db, _ := Open(opts)
	return db
}

// Open returns a store backed by opts.DataDir (memory-only when empty):
// existing chunk files are loaded, the WAL is replayed on top — torn or
// corrupt records truncate replay at the tear, they never fail the open —
// and a fresh WAL segment is armed for new appends. The recovery figures
// land in PersistStats.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	db := &DB{opts: opts, series: map[string]*Series{}}
	if opts.DataDir == "" {
		return db, nil
	}
	db.persist = newPersister(opts)
	if err := db.persist.recover(db); err != nil {
		return nil, err
	}
	// Recovery may have loaded samples that retention has since expired;
	// evict exactly as a fresh append at each series' newest time would.
	for _, s := range db.series {
		if s.count > 0 {
			s.evict(s.last)
		}
	}
	return db, nil
}

// Ref is a handle on one series of a DB: what a writer that appends to the
// same series again and again (dmon.Store, per node and metric) holds
// instead of the name, so the append path neither builds nor hashes a
// string. The zero Ref is not valid; get one from DB.Ref. A Ref outlives a
// Drop of its series: the next append through it finds — or recreates — the
// series by name.
type Ref struct{ s *Series }

// Entry is one sample of a batch.
type Entry struct {
	Ref Ref
	T   int64
	V   float64
}

// Ref returns the handle of the named series, creating the series if
// needed.
func (db *DB) Ref(name string) Ref {
	db.mu.Lock()
	defer db.mu.Unlock()
	return Ref{db.getOrCreate(name)}
}

// Append adds a sample to the named series, creating it if needed. It
// reports whether the sample was retained (false for non-increasing
// timestamps, or after Close). It is AppendBatch for a batch of one.
func (db *DB) Append(name string, t int64, v float64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return false
	}
	one := [1]Entry{{Ref{db.getOrCreate(name)}, t, v}}
	return db.appendLocked(one[:]) == 1
}

// AppendBatch adds the batch's samples in order, under one hold of the
// lock, and returns how many were retained (a non-increasing timestamp is
// rejected and counted in Stats.Dropped; after Close nothing is retained).
//
// On a durable DB the batch is the unit of logging: every sample that will
// be retained is WAL-logged — all of them in one write — before any reaches
// its head chunk, and with FsyncEvery == 1 (the default) the batch is
// fsync-durable before AppendBatch returns. WAL write failures (disk full,
// torn device) are counted in PersistStats.WALErrors and the samples are
// still retained in memory — the store degrades to memory-only rather than
// dropping live monitoring data.
func (db *DB) AppendBatch(batch []Entry) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0
	}
	return db.appendLocked(batch)
}

func (db *DB) appendLocked(batch []Entry) int {
	p := db.persist
	var persisted uint64
	if p != nil {
		persisted = p.stats.ChunksPersisted
		for i := range batch {
			e := &batch[i]
			p.wal.stage(db.live(e.Ref), e.T, floatBits(e.V))
		}
		p.wal.commit()
	}
	retained := 0
	for i := range batch {
		e := &batch[i]
		if db.live(e.Ref).Append(e.T, e.V) {
			retained++
		}
	}
	// Heads that sealed in this batch moved their series' watermarks: one
	// pass retires whatever that unpinned.
	if p != nil && p.stats.ChunksPersisted != persisted {
		p.retire()
	}
	return retained
}

// live resolves a handle to its series, by name if it was dropped since the
// handle was taken. Caller holds db.mu.
func (db *DB) live(r Ref) *Series {
	if r.s.gone {
		return db.getOrCreate(r.s.name)
	}
	return r.s
}

// getOrCreate returns the named series, creating it (bound to the DB's
// persister, if any) when needed. Caller holds db.mu.
func (db *DB) getOrCreate(name string) *Series {
	s, ok := db.series[name]
	if !ok {
		s = newSeries(&db.opts)
		s.name, s.persist = name, db.persist
		if db.persist != nil {
			s.durable.crcLead = sampleLead(name)
		}
		db.series[name] = s
	}
	return s
}

// Flush makes everything appended so far durable, at every cadence: the
// active WAL segment is sealed — fsync, close, open the next — and the files
// a size rotation sealed without an fsync (at a negative cadence) are synced
// now; WAL segments and chunk files that are no longer load-bearing are
// retired. A no-op on a memory-only store.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.persist == nil || db.closed {
		return nil
	}
	return db.persist.flush()
}

// Close makes the store durable and terminal: head chunks are persisted
// as chunk records, the chunk files are sealed with their footers and
// fsynced at every cadence, and the WAL is deleted — a cleanly closed store
// replays nothing on the next Open, and loses nothing to a power cut after
// it. Further appends return false.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.persist == nil {
		return nil
	}
	return db.persist.close(db.series)
}

// Persistent reports whether the store has a data dir behind it.
func (db *DB) Persistent() bool { return db.persist != nil }

// PersistStats returns a snapshot of the persistence counters (all zero
// for a memory-only store).
func (db *DB) PersistStats() PersistStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.persist == nil {
		return PersistStats{}
	}
	return db.persist.stats
}

// Tail returns the newest n samples of the named series, oldest first
// (nil for an unknown series).
func (db *DB) Tail(name string, n int) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.series[name]
	if !ok {
		return nil
	}
	return s.Tail(n)
}

// Query executes a windowed aggregate against the named series. A
// percentile counts the window through CountWindow, outside the lock.
func (db *DB) Query(name string, q Query) (Result, error) {
	if _, ok := q.Agg.Quantile(); ok && q.Res == 0 {
		return db.CountWindow(name, q, nil)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.series[name]
	if !ok {
		return Result{}, errNoSeries(name)
	}
	return s.Query(q)
}

type errNoSeries string

func (e errNoSeries) Error() string { return "tsdb: no series " + string(e) }

// Is classifies an unknown series as ErrNoData: for a windowed cluster
// query, a node that never recorded the series is an empty contribution,
// not a failure.
func (errNoSeries) Is(target error) bool { return target == ErrNoData }

// Scan streams the named series' raw samples with t in [from, to), in
// order, under the read lock: the exact samples that tests outside the
// package hold a query's answer against. A missing series scans nothing.
// Chunks wholly outside the window are skipped without decoding; a chunk
// that fails to decode ends the scan with its error, after fn has seen the
// samples before the fault.
func (db *DB) Scan(name string, from, to int64, fn func(Point)) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.series[name]
	if !ok {
		return nil
	}
	for i := range s.nchunks() {
		c := s.chunk(i)
		if !c.overlaps(from, to) {
			continue
		}
		it := c.iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p.T >= to {
				return nil
			}
			if p.T >= from {
				fn(p)
			}
		}
		if it.Err() != nil {
			return s.decodeError(c, it.Err())
		}
	}
	return nil
}

// Drop removes the named series.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.drop(name)
}

// drop removes the named series and voids what referred to it: handles
// re-resolve by name, and the files its samples pinned are released. Handles
// and pins may outlive the series by long, so what they keep reachable is
// cut down to a tombstone.
func (db *DB) drop(name string) {
	if s, ok := db.series[name]; ok {
		*s = Series{name: name, gone: true}
		delete(db.series, name)
	}
}

// DropPrefix removes every series whose name starts with prefix (how
// dmon.Store forgets a node).
func (db *DB) DropPrefix(prefix string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for name := range db.series {
		if strings.HasPrefix(name, prefix) {
			db.drop(name)
		}
	}
}

// Stats summarizes the store's footprint.
type Stats struct {
	Series  int
	Samples int // retained raw samples
	Bytes   int // compressed raw bytes across all series
	Dropped uint64
	// TierBuckets counts the closed downsample buckets the tiers hold, and
	// TierBytes the memory they take: buffers at capacity, chunk headers
	// and codec state — what the heap holds for them.
	TierBuckets int
	TierBytes   int
}

// Stats returns the current footprint; Bytes/Samples is the achieved
// compression in bytes per sample (16 raw).
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var st Stats
	st.Series = len(db.series)
	for _, s := range db.series {
		st.Samples += s.Count()
		st.Bytes += s.Bytes()
		st.Dropped += s.Dropped()
		for _, tr := range s.tiers {
			buckets, bytes := tr.footprint()
			st.TierBuckets += buckets
			st.TierBytes += bytes
		}
	}
	return st
}
