package tsdb

import (
	"fmt"
	"math"
	"time"
)

// Defaults for Options fields left zero.
const (
	// DefaultChunkSize is how many samples a chunk holds before it is
	// sealed behind a fresh head chunk.
	DefaultChunkSize = 256
)

// TierSpec describes one downsampling tier: samples are folded into
// buckets of Interval width, and closed buckets older than Retention
// (relative to the newest appended sample) are evicted. Zero Retention
// keeps buckets forever.
type TierSpec struct {
	Interval  time.Duration
	Retention time.Duration
}

// DefaultTiers returns the standard raw → 10s → 60s ladder, with tier
// retention scaled from the raw retention (6× and 24×; unbounded tiers
// when the raw retention is unbounded).
func DefaultTiers(rawRetention time.Duration) []TierSpec {
	scale := func(m time.Duration) time.Duration {
		if rawRetention <= 0 {
			return 0
		}
		return rawRetention * m
	}
	return []TierSpec{
		{Interval: 10 * time.Second, Retention: scale(6)},
		{Interval: time.Minute, Retention: scale(24)},
	}
}

// Options configures a Series (and, via DB, every series it creates).
type Options struct {
	// ChunkSize is the number of samples per sealed chunk
	// (DefaultChunkSize when zero).
	ChunkSize int
	// Retention bounds how far raw history reaches behind the newest
	// appended sample. Eviction is whole-chunk: a sealed chunk is dropped
	// once its newest sample falls outside the window. Zero keeps all
	// raw samples forever.
	Retention time.Duration
	// Tiers are the downsampling resolutions maintained alongside raw
	// samples. Nil means no tiers; use DefaultTiers for the standard
	// ladder.
	Tiers []TierSpec

	// DataDir, when non-empty, makes the DB durable: appends are
	// write-ahead logged before reaching the head chunk, sealed chunks are
	// persisted verbatim to chunk files, and Open recovers both on
	// restart. Empty keeps the store memory-only. Only Open honors this;
	// NewDB is always memory-only.
	DataDir string
	// FsyncEvery is the WAL fsync cadence in records, decided once per
	// batch (a batch is one Append, or one AppendBatch — for dmon.Store, one
	// report): 1 (the default) makes every batch durable before it returns,
	// N>1 fsyncs after the batch that brings the unsynced records to N or
	// more — a power-loss window of up to N-1 acknowledged records for
	// fewer fsyncs — and a negative value never fsyncs on its own, not even
	// when a file rotates: only Flush and Close do (durability otherwise at
	// the OS's leisure). Every cadence survives a kill -9: a batch reaches
	// the kernel before it returns.
	FsyncEvery int
	// WALSegmentBytes is the WAL segment rotation threshold
	// (DefaultWALSegmentBytes when zero).
	WALSegmentBytes int
	// ChunkFileBytes is the chunk-file rotation threshold
	// (DefaultChunkFileBytes when zero).
	ChunkFileBytes int
	// FS is the filesystem the persistence layer runs on; nil selects the
	// real one (OSFS). Tests inject faultnet's disk-fault injector here.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = DefaultWALSegmentBytes
	}
	if o.ChunkFileBytes <= 0 {
		o.ChunkFileBytes = DefaultChunkFileBytes
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Series is the compressed history of one metric: sealed chunks in time
// order behind a mutable head chunk, plus the downsampling tiers. A Series
// is not safe for concurrent use on its own; DB (and dmon.Store) serialize
// access.
//
// Its fields up to sealed are the append block: everything one accepted
// sample reads and writes sits together in the Series allocation — the
// handle's check and the WAL record's inputs, the count and the newest
// timestamp, the head chunk held by value (its codec state, summary and
// pending word), each tier's interval and in-progress bucket, and the
// eviction horizon — so an append touches a few adjacent cache lines of one
// object, not a chain of pointers into cold ones. What lies past it is read
// when a chunk seals, a bucket closes or a chunk is evicted.
type Series struct {
	// Set by the owning DB and guarded by its lock; unused on a bare Series.
	name string
	gone bool // dropped from the DB: handles re-resolve, pins are void
	// durable is a durable DB's per-series bookkeeping.
	durable durableState

	count int   // retained raw samples across all chunks
	last  int64 // newest retained timestamp, when count > 0
	head  Chunk
	opts  *Options // the owning DB's; shared, never written
	// oldest is the newest timestamp of the oldest sealed chunk
	// (math.MaxInt64 with none sealed): nothing is evicted while it is
	// inside the retention window, so an append checks it and nothing else.
	oldest int64
	// hot is each tier's hot half, in inline for up to inlineTiers tiers.
	hot    []tierHead
	inline [inlineTiers]tierHead

	sealed  []*Chunk
	tiers   []*tier // tiers[i] reaches its hot half at hot[i]
	dropped uint64  // appends rejected for non-increasing timestamps
	// persist, set by a durable DB, receives each chunk the moment the head
	// seals behind a fresh one, so the compressed bytes hit the chunk file
	// while they are still hot.
	persist *persister
}

// inlineTiers is how many tiers keep their hot half inside the Series:
// DefaultTiers' two. More tiers move all of them to a slice of their own.
const inlineTiers = 2

// NewSeries returns an empty series with the given options.
func NewSeries(opts Options) *Series {
	opts = opts.withDefaults()
	return newSeries(&opts)
}

// newSeries returns an empty series bound to opts, which must have its
// defaults and outlive it.
func newSeries(opts *Options) *Series {
	s := &Series{opts: opts, oldest: math.MaxInt64}
	s.hot = s.inline[:0]
	for _, spec := range opts.Tiers {
		if spec.Interval <= 0 {
			continue
		}
		s.hot = append(s.hot, tierHead{interval: spec.Interval.Nanoseconds()})
		s.tiers = append(s.tiers, &tier{retention: spec.Retention.Nanoseconds()})
	}
	for i, tr := range s.tiers {
		tr.tierHead = &s.hot[i]
	}
	return s
}

// Append adds a sample. Timestamps must be strictly increasing; a sample
// at or before the newest retained timestamp is dropped (counted in
// Dropped) so replayed or reordered reports cannot duplicate history.
func (s *Series) Append(t int64, v float64) bool {
	if s.count > 0 && t <= s.last {
		s.dropped++
		return false
	}
	if s.head.summary.Count >= s.opts.ChunkSize {
		s.sealHead()
	}
	s.head.Append(t, v)
	s.count++
	s.last = t
	for i := range s.hot {
		if !s.hot[i].add(t, v) {
			s.tiers[i].roll(t, v)
		}
	}
	s.evict(t)
	return true
}

// sealHead moves the head chunk, its stream flushed to the exact bytes,
// into a chunk of its own behind the sealed ones, starts a fresh head and,
// on a durable DB, persists the sealed chunk.
func (s *Series) sealHead() {
	sealed := new(Chunk)
	*sealed = s.head
	sealed.w.flush()
	s.sealed = append(s.sealed, sealed)
	s.setOldest()
	// Successive chunks of one series compress to about the same size:
	// sizing the new head from the one just sealed (plus 1/16) spares
	// the append-doubling that otherwise leaves twice the chunk's final
	// size in garbage and up to half its capacity unused. The 8 spare
	// bytes are the bitWriter's last word store, at the flush.
	n := sealed.Bytes()
	s.head = Chunk{w: bitWriter{buf: make([]byte, 0, n+n/16+8)}}
	if s.persist != nil {
		s.persist.persistChunk(s, sealed)
	}
}

// setOldest keeps oldest in step with the sealed list.
func (s *Series) setOldest() {
	s.oldest = math.MaxInt64
	if len(s.sealed) > 0 {
		s.oldest = s.sealed[0].summary.TMax
	}
}

// appendReplay is Append for WAL replay: rejected (already-covered)
// records are skipped without inflating the Dropped counter, since
// chunk/WAL overlap is expected, not an anomaly.
func (s *Series) appendReplay(t int64, v float64) bool {
	if s.count > 0 && t <= s.last {
		return false
	}
	return s.Append(t, v)
}

// loadSealed restores one persisted chunk (newest last; the caller feeds
// chunk files in write order). The samples are decoded once to rebuild the
// downsampling tiers, which live only in memory.
func (s *Series) loadSealed(sum Summary, data []byte) bool {
	if s.count > 0 && sum.TMin <= s.last {
		return false // out of order relative to already-loaded history
	}
	c := newSealedChunk(sum, data)
	s.sealed = append(s.sealed, c)
	s.setOldest()
	s.count += sum.Count
	s.last = sum.TMax
	if len(s.tiers) > 0 {
		it := c.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			for _, tr := range s.tiers {
				tr.observe(p.T, p.V)
			}
		}
	}
	return true
}

func (s *Series) lastT() int64 { return s.last }

func (s *Series) firstT() int64 {
	if len(s.sealed) > 0 {
		return s.sealed[0].summary.TMin
	}
	return s.head.summary.TMin
}

// evict drops sealed chunks entirely outside the retention window ending
// at now (the newest appended timestamp).
func (s *Series) evict(now int64) {
	ret := s.opts.Retention.Nanoseconds()
	if ret <= 0 || now-ret <= s.oldest {
		return
	}
	cutoff := now - ret
	i := 0
	for i < len(s.sealed) && s.sealed[i].summary.TMax < cutoff {
		s.count -= s.sealed[i].summary.Count
		i++
	}
	// Shift down in place: in steady state every seal evicts, and a fresh
	// slice per eviction would be a fresh slice per chunk.
	n := copy(s.sealed, s.sealed[i:])
	clear(s.sealed[n:])
	s.sealed = s.sealed[:n]
	s.setOldest()
}

// Count returns the number of retained raw samples.
func (s *Series) Count() int { return s.count }

// Dropped returns how many appends were rejected as non-increasing.
func (s *Series) Dropped() uint64 { return s.dropped }

// Bytes returns the compressed size of all retained raw chunks.
func (s *Series) Bytes() int {
	n := s.head.Bytes()
	for _, c := range s.sealed {
		n += c.Bytes()
	}
	return n
}

// nchunks counts the retained chunks, the head only when it holds samples;
// chunk returns them by index in time order, the head last.
func (s *Series) nchunks() int {
	if s.head.summary.Count > 0 {
		return len(s.sealed) + 1
	}
	return len(s.sealed)
}

func (s *Series) chunk(i int) *Chunk {
	if i < len(s.sealed) {
		return s.sealed[i]
	}
	return &s.head
}

// Tail returns the newest n retained samples, oldest first (all retained
// samples when n <= 0 or n exceeds the count).
func (s *Series) Tail(n int) []Point {
	if n <= 0 || n > s.count {
		n = s.count
	}
	if n == 0 {
		return nil
	}
	// Find the first chunk we need, counting samples from the end.
	need := n
	start := s.nchunks()
	for start > 0 && need > 0 {
		start--
		need -= s.chunk(start).summary.Count
	}
	out := make([]Point, 0, n-need) // need <= 0: -need extra decoded samples
	for i := start; i < s.nchunks(); i++ {
		it := s.chunk(i).iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			out = append(out, p)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// overlaps reports whether c holds samples that may lie in [from, to).
func (c *Chunk) overlaps(from, to int64) bool {
	return c.summary.TMax >= from && c.summary.TMin < to
}

// Scan calls fn for every retained sample with from <= t < to, in time
// order. Chunks wholly outside the window are skipped without decoding. A
// chunk that fails to decode ends the scan with its error, after fn has
// seen the samples before the fault.
func (s *Series) Scan(from, to int64, fn func(p Point)) error {
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

// appendValues is Scan appending each sample's value to dst: the same loop
// with no call per sample.
func (s *Series) appendValues(dst []float64, from, to int64) ([]float64, error) {
	for i := range s.nchunks() {
		c := s.chunk(i)
		if !c.overlaps(from, to) {
			continue
		}
		it := c.iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p.T >= to {
				return dst, nil
			}
			if p.T >= from {
				dst = append(dst, p.V)
			}
		}
		if it.Err() != nil {
			return dst, s.decodeError(c, it.Err())
		}
	}
	return dst, nil
}

// decodeError names the series and the chunk a decode error came from.
func (s *Series) decodeError(c *Chunk, err error) error {
	return fmt.Errorf("series %s, chunk at %dns: %w", s.name, c.summary.TMin, err)
}

// Buckets returns the downsample buckets of the tier with the given
// interval (closed buckets plus the in-progress one), or nil if no such
// tier is configured.
func (s *Series) Buckets(interval time.Duration) []Bucket {
	if tr := s.tier(interval); tr != nil {
		return tr.all()
	}
	return nil
}

// tier returns the tier with the given interval, or nil.
func (s *Series) tier(interval time.Duration) *tier {
	for _, tr := range s.tiers {
		if tr.interval == interval.Nanoseconds() {
			return tr
		}
	}
	return nil
}

// TierIntervals lists the configured tier resolutions in order.
func (s *Series) TierIntervals() []time.Duration {
	out := make([]time.Duration, len(s.tiers))
	for i, tr := range s.tiers {
		out[i] = time.Duration(tr.interval)
	}
	return out
}
