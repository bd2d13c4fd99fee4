package dmon

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/metrics"
	"dproc/internal/tsdb"
)

// HistoryDepth is the default size of the history *view*: how many recent
// samples History returns when no explicit count is requested — the size
// of the original MAGNeT-style ring buffer. The store itself now retains
// far more underneath, compressed in tsdb chunks, bounded by
// StoreOptions.Retention rather than a sample count.
const HistoryDepth = 64

// DefaultRetention bounds how far raw per-metric history reaches behind
// the newest sample when StoreOptions.Retention is zero.
const DefaultRetention = time.Hour

// StoreOptions tunes the store's history subsystem. The zero value gives
// the defaults: a 64-sample default view over one hour of raw retention
// with the standard 10s/60s downsampling tiers.
type StoreOptions struct {
	// HistoryDepth is the default History view size (HistoryDepth when
	// zero).
	HistoryDepth int
	// Retention bounds raw sample history per (node, metric)
	// (DefaultRetention when zero; negative keeps samples forever).
	Retention time.Duration
	// ChunkSize is the tsdb chunk size in samples (tsdb default when
	// zero).
	ChunkSize int
	// DataDir, when non-empty, makes history durable: appends are
	// write-ahead logged and sealed chunks persisted under this directory,
	// and OpenStore recovers both on restart (see tsdb.Options.DataDir).
	DataDir string
	// FsyncEvery is the WAL fsync cadence in records, decided once per
	// report (tsdb.Options.FsyncEvery): 0 or 1 fsyncs every report before
	// Update returns, N>1 after the report that brings the unsynced records
	// to N or more, negative never on its own — not even when a file
	// rotates — only at Flush and Close.
	FsyncEvery int
	// FS overrides the filesystem the persistence layer runs on (nil =
	// the real one); tests inject faultnet's disk-fault injector here.
	FS tsdb.FS
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.HistoryDepth <= 0 {
		o.HistoryDepth = HistoryDepth
	}
	switch {
	case o.Retention == 0:
		o.Retention = DefaultRetention
	case o.Retention < 0:
		o.Retention = 0 // tsdb convention: zero = unbounded
	}
	return o
}

// Store holds the most recent monitoring data received from remote nodes.
// It is the backing state for the /proc/cluster/<node>/<metric> pseudo-files.
// Per-metric history lives in a tsdb.DB: Gorilla-compressed chunks with
// downsampling tiers and windowed aggregate queries, keyed
// "<node>/<metric>".
type Store struct {
	mu    sync.RWMutex
	opts  StoreOptions
	nodes map[string]*nodeState
	db    *tsdb.DB
	// gen counts changes to the set of reporting nodes: bumped, under mu,
	// when Update creates a node and when Forget drops one.
	gen atomic.Uint64
}

// nodeState is everything the store holds for one reporting node outside
// the tsdb: the latest sample per metric — an array indexed by metrics.ID
// with a presence mask, not a map, because every report rewrites most of it
// — the report bookkeeping, and the tsdb handle of each of the node's
// series, resolved from "<node>/<metric>" once rather than per sample.
// Forget drops the whole struct, handles included.
type nodeState struct {
	latest  [metrics.NumIDs]metrics.Sample
	present uint32 // bit id: latest[id] is set
	series  [metrics.NumIDs]tsdb.Ref
	lastRpt time.Time
	reports uint64
}

// Compile-time check that the presence mask has a bit per metric.
var _ [32 - metrics.NumIDs]struct{}

// NewStore returns an empty in-memory store with default options. Use
// OpenStore for other options or a durable store.
func NewStore() *Store {
	s, err := OpenStore(StoreOptions{})
	if err != nil {
		panic("dmon: memory-only store cannot fail: " + err.Error()) // unreachable
	}
	return s
}

// OpenStore returns a store with the given history options. With a DataDir
// it is durable: existing history is recovered from disk (chunk files plus
// WAL replay, truncating at torn records) before the store accepts
// updates, and the error reflects an unreadable data dir.
func OpenStore(opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	db, err := tsdb.Open(tsdb.Options{
		ChunkSize:  opts.ChunkSize,
		Retention:  opts.Retention,
		Tiers:      tsdb.DefaultTiers(opts.Retention),
		DataDir:    opts.DataDir,
		FsyncEvery: opts.FsyncEvery,
		FS:         opts.FS,
	})
	if err != nil {
		return nil, err
	}
	return &Store{opts: opts, nodes: map[string]*nodeState{}, db: db}, nil
}

// PersistStats re-exports the tsdb persistence counters so store users
// (core's stats gauges) need not import tsdb themselves.
type PersistStats = tsdb.PersistStats

// Persistent reports whether the store writes history to disk.
func (s *Store) Persistent() bool { return s.db.Persistent() }

// PersistStats returns the history store's persistence counters (all zero
// for an in-memory store).
func (s *Store) PersistStats() PersistStats { return s.db.PersistStats() }

// Flush seals the active WAL segment, making all appended history durable
// regardless of the fsync cadence. A no-op for an in-memory store.
func (s *Store) Flush() error { return s.db.Flush() }

// Close seals and flushes the history store: head chunks are persisted,
// the WAL is retired, and a cleanly closed store replays nothing on the
// next OpenStore. Updates after Close keep the latest-value map current
// but no longer reach history.
func (s *Store) Close() error { return s.db.Close() }

// seriesKey names the tsdb series for (node, metric). Metric names never
// contain '/', so the node prefix is unambiguous for DropPrefix.
func seriesKey(node string, id metrics.ID) string { return node + "/" + id.String() }

// SeriesKey is seriesKey for callers addressing the tsdb by metric name
// rather than metrics.ID — the distributed-query leaf answers for its own
// node's series without round-tripping through ParseID.
func SeriesKey(node, metric string) string { return node + "/" + metric }

// Options returns the store's effective history options.
func (s *Store) Options() StoreOptions { return s.opts }

// TSDB exposes the history store (for stats, benchmarks and direct
// queries).
func (s *Store) TSDB() *tsdb.DB { return s.db }

// Update folds one received report into the store: the latest-value view
// under the store's lock, then the history as one tsdb batch — one hold of
// the tsdb lock and, on a durable store, one WAL write per report. The
// latest-value view keeps, per metric, the newest sample by its timestamp:
// a sample older than the one it holds (a replayed or reordered report)
// leaves it as it is, one as new replaces it. Samples whose timestamps do
// not advance a series are not duplicated into history either.
func (s *Store) Update(r *metrics.Report) {
	var stack [metrics.NumIDs]tsdb.Entry // a report rarely carries an ID twice
	batch := stack[:0]
	s.mu.Lock()
	n, ok := s.nodes[r.Node]
	if !ok {
		n = &nodeState{}
		s.nodes[r.Node] = n
		s.gen.Add(1)
	}
	for i := range r.Samples {
		sample := &r.Samples[i]
		id := sample.ID
		if !id.Valid() {
			continue // DecodeReport refuses these; a hand-built report may not
		}
		if n.present&(1<<id) == 0 {
			n.present |= 1 << id
			n.series[id] = s.db.Ref(seriesKey(r.Node, id))
			n.latest[id] = *sample
		} else if !sample.Time.Before(n.latest[id].Time) {
			n.latest[id] = *sample
		}
		batch = append(batch, tsdb.Entry{Ref: n.series[id], T: sample.Time.UnixNano(), V: sample.Value})
	}
	if r.Time.After(n.lastRpt) {
		n.lastRpt = r.Time
	}
	n.reports++
	s.mu.Unlock()
	// The tsdb has its own lock; appending outside s.mu keeps readers of
	// the latest-value view unblocked during chunk work.
	s.db.AppendBatch(batch)
}

// History returns up to n retained samples for (node, metric), oldest
// first; n <= 0 returns the default view of the most recent
// StoreOptions.HistoryDepth samples.
func (s *Store) History(node string, id metrics.ID, n int) []metrics.Sample {
	if n <= 0 {
		n = s.opts.HistoryDepth
	}
	pts := s.db.Tail(seriesKey(node, id), n)
	if pts == nil {
		return nil
	}
	out := make([]metrics.Sample, len(pts))
	for i, p := range pts {
		out[i] = metrics.Sample{ID: id, Value: p.V, Time: time.Unix(0, p.T).UTC()}
	}
	return out
}

// Query parses and executes a windowed aggregate query (tsdb grammar:
// "<agg> <metric> [from <t> to <t> | last <dur>] [@<res>]") against one
// node's history, returning the rendered result text.
func (s *Store) Query(node, text string) (string, error) {
	q, err := tsdb.ParseQuery(text)
	if err != nil {
		return "", err
	}
	id, ok := metrics.ParseID(q.Metric)
	if !ok {
		return "", fmt.Errorf("dmon: unknown metric %q", q.Metric)
	}
	res, err := s.db.Query(seriesKey(node, id), q)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// Get returns the latest sample for (node, metric).
func (s *Store) Get(node string, id metrics.ID) (metrics.Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.nodes[node]
	if n == nil || !id.Valid() || n.present&(1<<id) == 0 {
		return metrics.Sample{}, false
	}
	return n.latest[id], true
}

// Value returns just the value for (node, metric), with ok=false if absent.
func (s *Store) Value(node string, id metrics.ID) (float64, bool) {
	sample, ok := s.Get(node, id)
	return sample.Value, ok
}

// Generation changes whenever the set of nodes Nodes lists does: a caller
// that remembers the generation it last listed at can skip listing again
// until it moves.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Nodes lists the nodes that have reported, sorted.
func (s *Store) Nodes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Metrics lists the metric IDs known for a node, ascending.
func (s *Store) Metrics(node string) []metrics.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var present uint32
	if n := s.nodes[node]; n != nil {
		present = n.present
	}
	out := make([]metrics.ID, 0, bits.OnesCount32(present))
	for id := metrics.ID(0); id < metrics.NumIDs; id++ {
		if present&(1<<id) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// LastReport returns when a node last reported and how many reports it has
// sent.
func (s *Store) LastReport(node string) (time.Time, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := s.nodes[node]; n != nil {
		return n.lastRpt, n.reports
	}
	return time.Time{}, 0
}

// Forget drops all state for a node (e.g. after it leaves the cluster):
// its latest values, its series handles and, in the tsdb, its series. A
// later Update for the same node starts from fresh series.
func (s *Store) Forget(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[node]; ok {
		delete(s.nodes, node)
		s.gen.Add(1)
	}
	// Under s.mu, so that no Update can take a handle on a series between
	// the two and be left holding a dropped one.
	s.db.DropPrefix(node + "/")
}
