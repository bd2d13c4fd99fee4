// Package core assembles the dproc node: the d-mon distributed monitor, the
// KECho monitoring and control channels, the channel registry client, and
// the /proc-style pseudo-filesystem that exposes cluster state as
// cluster/<node>/<metric> files with a writable control file per node —
// the architecture of Figures 1 and 2 of the paper.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/sysinfo"
	"dproc/internal/tsdb"
	"dproc/internal/vfs"
	"dproc/internal/wire"
)

// Config configures a dproc node. The zero value of every field except Name
// is valid and selects the built-in default; Defaults() returns the fully
// populated starting point (see config.go for defaults, validation and flag
// binding).
type Config struct {
	// Name is the node's cluster-unique name (its channel member ID).
	Name string
	// RegistryAddr is the channel registry to join; empty runs the node
	// standalone (local monitoring only, no channels).
	RegistryAddr string
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Transport is where the node's sockets come from: both channels, the
	// registry client and the admin server (Node.Transport). Nil selects
	// plain TCP. Socket deadlines run on its I/O clock (clock.IO).
	Transport wire.Transport
	// Source supplies local metric values; nil selects the live sysinfo
	// source reading the real /proc.
	Source dmon.Source
	// Padding adds bytes to every monitoring event (evaluation knob).
	Padding int
	// Channel tunes the KECho channels, including the async fan-out knobs:
	// OutboxSize (per-peer outbound queue) and MaxBatch (events coalesced
	// per frame by the peer writers). Zero fields take kecho's defaults.
	// The node fills in per channel what it owns: clock, transport, metrics
	// and observer on both, and the overlay (Topology, Role) from
	// RelayBranching and RelayRole — whatever the caller put there is
	// replaced. ReconnectInterval also paces the admin server's
	// registration heartbeat, and DisableReconnect silences it.
	Channel kecho.Options
	// RelayBranching, when positive, replaces the monitoring channel's flat
	// full mesh with a relay-tree overlay of that branching factor
	// (internal/overlay): the node connects only to its tree neighbors and
	// interior nodes re-publish monitoring reports down their subtrees. The
	// control channel always stays full mesh — targeted control messages
	// (SubmitTo) need direct connections. Zero keeps both channels flat.
	RelayBranching int
	// RelayRole is the overlay role this node advertises to the registry
	// ("" = leaf, "relay" = interior-capable). Only meaningful with
	// RelayBranching set; relay-capable nodes take the interior positions
	// of the tree.
	RelayRole string
	// PollPeriod is the interval of the StartPolling loop
	// (dmon.DefaultPeriod when zero).
	PollPeriod time.Duration
	// HistoryDepth is the default size of the history view served by
	// cluster/<node>/history/<metric> (dmon.HistoryDepth when zero).
	HistoryDepth int
	// HistoryRetention bounds the compressed per-metric history kept by
	// the tsdb store (dmon.DefaultRetention when zero, unbounded when
	// negative).
	HistoryRetention time.Duration
	// DataDir, when non-empty, makes the history store durable: accepted
	// samples are write-ahead logged and sealed chunks persisted under this
	// directory, and NewNode recovers existing history on startup (torn
	// records truncate replay, they never fail the start).
	DataDir string
	// FsyncEvery is the WAL fsync cadence in records, decided once per
	// report (tsdb.Options.FsyncEvery): 1 (the default) fsyncs every report
	// before it is acknowledged, N>1 after the report that brings the
	// unsynced records to N or more, negative never on its own — not even
	// when a file rotates — only at a flush and at Close. Ignored without
	// DataDir.
	FsyncEvery int
	// StoreFS, when non-nil, replaces the OS filesystem behind the durable
	// history store — the hook fault-injection harnesses (faultnet.Disk)
	// use to script ENOSPC and fsync failures per node. Ignored without
	// DataDir.
	StoreFS tsdb.FS
	// TraceSample samples one monitoring event in TraceSample for per-stage
	// latency tracing (rounded up to a power of two). Zero or negative
	// disables tracing; the latency histograms stay on regardless.
	TraceSample int
	// AdminTimeout bounds each admin-protocol request/response phase on the
	// node's admin server (adminproto.DefaultTimeout when zero). Per phase,
	// not per connection: slow multi-second responses survive, stalls do not.
	// It and the two query fields below are read by adminproto.NewServer.
	AdminTimeout time.Duration
	// QueryTimeout is the per-node budget of a cluster scatter-gather
	// (queryall) fan-out; a node that fails to answer within it is reported
	// as failed in an annotated partial result (query.DefaultTimeout when
	// zero).
	QueryTimeout time.Duration
	// QueryFanout bounds concurrent per-node fetches of one cluster query
	// (query.DefaultConcurrency when zero).
	QueryFanout int
}

// Node is one dproc participant.
type Node struct {
	cfg Config // as resolved by NewNode; see Config
	d   *dmon.DMon
	fs  *vfs.FS

	metrics *metrics.Registry
	obs     *obs.Observer

	regCli *registry.Client
	mon    *kecho.Channel
	ctl    *kecho.Channel

	mu      sync.Mutex
	tracked map[string]bool // remote nodes with VFS entries
	closed  bool
	// listedGen is the store generation Refresh last listed nodes at.
	listedGen atomic.Uint64

	stopPoll chan struct{}
	pollDone chan struct{}
}

// NewNode constructs a node, joins the cluster channels (if a registry is
// configured) and builds the initial /proc hierarchy.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	src := cfg.Source
	if src == nil {
		src = NewSysinfoSource(clk)
	}
	d, err := dmon.OpenWith(cfg.Name, clk, src, dmon.StoreOptions{
		HistoryDepth: cfg.HistoryDepth,
		Retention:    cfg.HistoryRetention,
		DataDir:      cfg.DataDir,
		FsyncEvery:   cfg.FsyncEvery,
		FS:           cfg.StoreFS,
	})
	if err != nil {
		return nil, fmt.Errorf("core: opening history store: %w", err)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = wire.TCP{}
	}
	cfg.Clock, cfg.Transport, cfg.Source = clk, tr, src
	if cfg.PollPeriod == 0 {
		cfg.PollPeriod = dmon.DefaultPeriod
	}
	if cfg.Channel.ReconnectInterval <= 0 {
		cfg.Channel.ReconnectInterval = kecho.DefaultOptions().ReconnectInterval
	}
	n := &Node{
		cfg:     cfg,
		d:       d,
		fs:      vfs.New(),
		tracked: map[string]bool{},
	}
	// Every counter, gauge and latency distribution the node produces lives
	// in this one registry; the health file, stats file, admin verb and
	// Prometheus endpoint are all views over it.
	n.metrics = metrics.NewRegistry()
	n.obs = obs.New(cfg.Name, n.metrics, cfg.TraceSample)
	n.d.SetObserver(n.obs)
	n.d.SetMetrics(n.metrics)
	n.d.SetPadding(cfg.Padding)
	n.registerHistoryGauges()
	if cfg.RegistryAddr != "" {
		// The channels run on the node clock so the reconnect supervisor
		// paces itself on virtual time in simulations, and share the node's
		// transport, registry and observer so their counters and per-stage
		// spans land in the unified stats surface.
		chOpts := cfg.Channel
		chOpts.Clock = clk
		chOpts.Transport = tr
		chOpts.Metrics = n.metrics
		chOpts.Observer = n.obs
		n.regCli = registry.NewClient(cfg.RegistryAddr)
		n.regCli.SetTransport(tr)
		// The relay-tree overlay applies to the monitoring channel only:
		// its traffic is broadcast reports, exactly what the tree fans out.
		// The control channel is a full mesh with no role, whatever the
		// caller set — remote control writes are targeted SubmitTo messages
		// needing direct connections.
		chOpts.Topology, chOpts.Role = nil, ""
		monOpts := chOpts
		if cfg.RelayBranching > 0 {
			monOpts.Topology = overlay.RelayTree{Branching: cfg.RelayBranching}
			monOpts.Role = cfg.RelayRole
		}
		mon, err := kecho.Join(n.regCli, dmon.MonitoringChannel, cfg.Name, &monOpts)
		if err != nil {
			n.regCli.Close()
			_ = n.d.Close()
			return nil, fmt.Errorf("core: joining monitoring channel: %w", err)
		}
		ctl, err := kecho.Join(n.regCli, dmon.ControlChannel, cfg.Name, &chOpts)
		if err != nil {
			mon.Close()
			n.regCli.Close()
			_ = n.d.Close()
			return nil, fmt.Errorf("core: joining control channel: %w", err)
		}
		n.mon, n.ctl = mon, ctl
		n.d.Attach(mon, ctl)
		n.regCli.RegisterMetrics(n.metrics)
	}
	n.buildSelfTree(src)
	return n, nil
}

// Name returns the node name.
func (n *Node) Name() string { return n.cfg.Name }

// Config returns the configuration the node runs with: NewNode's, with
// Clock, Transport, Source, PollPeriod and Channel.ReconnectInterval at
// the values the node resolved for them. The admin server reads its
// timeouts and heartbeat pace here.
func (n *Node) Config() Config { return n.cfg }

// Clock returns the node's clock (virtual in simulations). Cluster-wide
// queries anchor "last <dur>" windows on it so every node answers the same
// absolute window.
func (n *Node) Clock() clock.Clock { return n.cfg.Clock }

// Transport returns the node's transport, which the admin server listens
// and dials on like the channels and the registry client.
func (n *Node) Transport() wire.Transport { return n.cfg.Transport }

// Registry exposes the node's registry client (nil when standalone). The
// admin server uses it to advertise its endpoint on the admin channel and
// to enumerate scatter-gather targets; the client serializes its single
// connection internally, so sharing it with the kecho channels is safe.
func (n *Node) Registry() *registry.Client { return n.regCli }

// DMon exposes the node's distributed monitor.
func (n *Node) DMon() *dmon.DMon { return n.d }

// FS exposes the node's /proc-style filesystem.
func (n *Node) FS() *vfs.FS { return n.fs }

// Metrics exposes the node's unified metric registry — the single source
// for the health file, stats file, admin verb and Prometheus endpoint.
func (n *Node) Metrics() *metrics.Registry { return n.metrics }

// Observer exposes the node's observability collector.
func (n *Node) Observer() *obs.Observer { return n.obs }

// MonitoringChannel returns the monitoring channel (nil when standalone).
func (n *Node) MonitoringChannel() *kecho.Channel { return n.mon }

// ControlChannel returns the control channel (nil when standalone).
func (n *Node) ControlChannel() *kecho.Channel { return n.ctl }

// buildSelfTree creates cluster/<self>/ entries reading live local values,
// plus the local control file.
func (n *Node) buildSelfTree(src dmon.Source) {
	base := "cluster/" + n.cfg.Name
	for _, id := range metrics.AllIDs() {
		id := id
		path := base + "/" + id.String()
		_ = n.fs.Create(path, func() (string, error) {
			return formatMetric(id, src.Sample(id)), nil
		}, nil)
	}
	_ = n.fs.Create(base+"/control", vfs.StaticRead(""), func(data string) error {
		return n.d.ApplyControlText(data)
	})
	// config is the introspective read of the control interface.
	_ = n.fs.Create(base+"/config", func() (string, error) {
		return n.d.ConfigText(), nil
	}, nil)
	// health exposes the transport's self-healing counters: peer counts,
	// reconnects, deadline drops, registry heartbeats and rejoins.
	_ = n.fs.Create(base+"/health", func() (string, error) {
		h := n.Health()
		return h.Render(), nil
	}, nil)
	// stats exposes the node's full observability surface: every counter
	// and gauge, the latency distributions with p50/p95/p99, and the most
	// recent sampled traces with their per-stage breakdown.
	_ = n.fs.Create(base+"/stats", func() (string, error) {
		return n.StatsText(), nil
	}, nil)
	n.buildHistoryTree(n.cfg.Name)
}

// buildHistoryTree creates history/<metric> and the query file for a node,
// the local one included: DMon.PollOnce folds its reports into the store.
func (n *Node) buildHistoryTree(nodeName string) {
	base := "cluster/" + nodeName
	store := n.d.Store()
	for _, id := range metrics.AllIDs() {
		id := id
		// history/<metric> lists the retained samples, oldest first — the
		// tsdb-backed successor of the MAGNeT-style ring buffer as a
		// pseudo-file. One "<unix seconds> <value>" pair per line, directly
		// plottable (e.g. gnuplot "using 1:2").
		_ = n.fs.Create(base+"/history/"+id.String(), func() (string, error) {
			samples := store.History(nodeName, id, 0)
			var sb strings.Builder
			for _, s := range samples {
				fmt.Fprintf(&sb, "%.3f %g\n", float64(s.Time.UnixNano())/1e9, s.Value)
			}
			return sb.String(), nil
		}, nil)
	}
	// query executes windowed aggregates over the node's compressed
	// history: write "<agg> <metric> [from <t> to <t> | last <dur>]
	// [@<res>]", then read back the result — the paper's "read text
	// files, write control strings" contract applied to the tsdb.
	qf := &queryFile{last: queryUsage}
	_ = n.fs.Create(base+"/query", qf.read, func(data string) error {
		out, err := store.Query(nodeName, strings.TrimSpace(data))
		if err != nil {
			return err
		}
		qf.set(out)
		return nil
	})
}

// registerHistoryGauges surfaces the history store in the unified registry
// — and thereby in cluster/<node>/stats, the admin stats verb and the
// Prometheus endpoint. Every node gets its footprint: series held, raw
// chunk bytes, and the bytes the downsampling tiers take (the store's
// largest share of memory). A durable store adds its persistence counters,
// so their presence doubles as the durability-on signal.
func (n *Node) registerHistoryGauges() {
	store := n.d.Store()
	db := store.TSDB()
	n.metrics.Gauge("tsdb", "", "series", func() uint64 { return uint64(db.Stats().Series) })
	n.metrics.Gauge("tsdb", "", "raw_bytes", func() uint64 { return uint64(db.Stats().Bytes) })
	n.metrics.Gauge("tsdb", "", "tier_bytes", func() uint64 { return uint64(db.Stats().TierBytes) })
	if !store.Persistent() {
		return
	}
	gauge := func(name string, read func(dmon.PersistStats) uint64) {
		n.metrics.Gauge("tsdb", "", name, func() uint64 { return read(store.PersistStats()) })
	}
	// Recovery figures (fixed after startup): what the last open replayed.
	gauge("recovery_segments_replayed", func(s dmon.PersistStats) uint64 { return s.SegmentsReplayed })
	gauge("recovery_records_replayed", func(s dmon.PersistStats) uint64 { return s.RecordsReplayed })
	gauge("recovery_records_truncated", func(s dmon.PersistStats) uint64 { return s.RecordsTruncated })
	gauge("recovery_bytes_truncated", func(s dmon.PersistStats) uint64 { return s.BytesTruncated })
	gauge("recovery_chunk_files_loaded", func(s dmon.PersistStats) uint64 { return s.ChunkFilesLoaded })
	gauge("recovery_chunks_loaded", func(s dmon.PersistStats) uint64 { return s.ChunksLoaded })
	// Steady state: the WAL and chunk-file write side.
	gauge("wal_appends", func(s dmon.PersistStats) uint64 { return s.WALAppends })
	gauge("wal_bytes", func(s dmon.PersistStats) uint64 { return s.WALBytes })
	// wal_appends / wal_writes is records per write: the report batching.
	gauge("wal_writes", func(s dmon.PersistStats) uint64 { return s.WALWrites })
	gauge("wal_errors", func(s dmon.PersistStats) uint64 { return s.WALErrors })
	gauge("fsyncs", func(s dmon.PersistStats) uint64 { return s.Fsyncs })
	gauge("wal_segments_sealed", func(s dmon.PersistStats) uint64 { return s.SegmentsSealed })
	gauge("wal_segments_deleted", func(s dmon.PersistStats) uint64 { return s.SegmentsDeleted })
	gauge("chunks_persisted", func(s dmon.PersistStats) uint64 { return s.ChunksPersisted })
	gauge("chunk_bytes", func(s dmon.PersistStats) uint64 { return s.ChunkBytes })
	gauge("chunk_files_sealed", func(s dmon.PersistStats) uint64 { return s.ChunkFilesSealed })
	gauge("chunk_files_deleted", func(s dmon.PersistStats) uint64 { return s.ChunkFilesDeleted })
}

// FlushHistory seals the history store's active WAL segment, making all
// appended samples durable regardless of the fsync cadence — the admin
// "flush" verb. A no-op (nil) on a memory-only node.
func (n *Node) FlushHistory() error {
	return n.d.Store().Flush()
}

// Health returns the node's self-healing view over the unified metric
// registry: per-channel reconnect and deadline counters plus the registry
// client's retry/heartbeat counters.
func (n *Node) Health() metrics.Health {
	return metrics.NewHealth(n.cfg.Name, n.metrics)
}

// StatsText renders the node's complete stats report — the body of the
// cluster/<node>/stats pseudo-file and the admin "stats" verb.
func (n *Node) StatsText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "node %s\n", n.cfg.Name)
	fmt.Fprintf(&sb, "trace_sample_every %d\n", n.obs.SamplingEvery())
	n.metrics.RenderText(&sb)
	n.obs.RenderTraces(&sb, 16)
	return sb.String()
}

// trackRemote ensures VFS entries exist for a remote node.
func (n *Node) trackRemote(nodeName string) {
	n.mu.Lock()
	if n.tracked[nodeName] || nodeName == n.cfg.Name {
		n.mu.Unlock()
		return
	}
	n.tracked[nodeName] = true
	n.mu.Unlock()
	base := "cluster/" + nodeName
	store := n.d.Store()
	for _, id := range metrics.AllIDs() {
		id := id
		path := base + "/" + id.String()
		_ = n.fs.Create(path, func() (string, error) {
			sample, ok := store.Get(nodeName, id)
			if !ok {
				return "", fmt.Errorf("core: no data for %s/%s yet", nodeName, id)
			}
			return formatMetric(id, sample.Value), nil
		}, nil)
	}
	n.buildHistoryTree(nodeName)
	_ = n.fs.Create(base+"/status", func() (string, error) {
		last, count := store.LastReport(nodeName)
		return fmt.Sprintf("reports %d\nlast %s\n", count, last.UTC().Format(time.RFC3339Nano)), nil
	}, nil)
	// Writes to a remote node's control file travel over the control
	// channel, exactly as the paper deploys remote parameters and filters.
	_ = n.fs.Create(base+"/control", vfs.StaticRead(""), func(data string) error {
		return n.d.SendControl(nodeName, data)
	})
}

// SetClusterQuerier installs the cluster-wide scatter-gather behind the
// cluster/query pseudo-file: writing "<agg> <metric> <window>" fans the
// query out to every registered node and stores the merged, per-node
// annotated result for the next read. The function is supplied by the
// admin server (adminproto) rather than built here because the fan-out
// rides the admin protocol, which sits above core in the import order.
func (n *Node) SetClusterQuerier(run func(query string) (string, error)) {
	qf := &queryFile{last: clusterQueryUsage}
	_ = n.fs.Create("cluster/query", qf.read, func(data string) error {
		out, err := run(strings.TrimSpace(data))
		if err != nil {
			return err
		}
		qf.set(out)
		return nil
	})
}

// clusterQueryUsage is served by cluster/query before its first write.
const clusterQueryUsage = "write a cluster query first: <agg> <metric> (from <t> to <t> | last <dur>) [@<res>]\n" +
	"agg: min max avg sum count rate p50 p95 p99; merged across every registered node\n"

// queryUsage is served by a query pseudo-file before its first write.
const queryUsage = "write a query first: <agg> <metric> [from <t> to <t> | last <dur>] [@<res>]\n" +
	"agg: min max avg sum count rate p50 p95 p99\n"

// queryFile holds the last query result for one node's query pseudo-file:
// writing executes the query, reading returns the rendered result.
type queryFile struct {
	mu   sync.Mutex
	last string
}

func (q *queryFile) read() (string, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.last, nil
}

func (q *queryFile) set(s string) {
	q.mu.Lock()
	q.last = s
	q.mu.Unlock()
}

// Refresh materializes VFS entries for any newly seen remote nodes. It
// lists the store's nodes only when the set has changed since the last
// listing, so a poll with the same reporters costs one atomic load.
func (n *Node) Refresh() {
	store := n.d.Store()
	gen := store.Generation()
	if gen == n.listedGen.Load() {
		return
	}
	for _, remote := range store.Nodes() {
		n.trackRemote(remote)
	}
	// A node added after gen was read is in the listing or moves the
	// generation again; either way no node is missed.
	n.listedGen.Store(gen)
}

// PollOnce runs one complete node iteration: drain incoming channel events,
// publish local monitoring data, and refresh the VFS tree. It returns the
// number of events received and whether a report was published.
func (n *Node) PollOnce() (received int, published bool, err error) {
	received = n.d.PollChannels()
	report, _, err := n.d.PollOnce()
	n.Refresh()
	return received, report != nil, err
}

// StartPolling launches a background loop calling PollOnce every
// Config.PollPeriod on the node clock, on a fixed grid. A tick the loop
// could not take in time — a slow poll, or a virtual clock advanced past
// several intervals at once — is dropped, as a ticker drops it. On a
// virtual clock the loop polls only as the clock is advanced. Stop with
// StopPolling or Close.
func (n *Node) StartPolling() {
	interval := n.cfg.PollPeriod
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopPoll != nil || n.closed {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	n.stopPoll, n.pollDone = stop, done
	go func() {
		defer close(done)
		next := n.cfg.Clock.Now().Add(interval)
		for clock.Wait(n.cfg.Clock, next.Sub(n.cfg.Clock.Now()), stop) {
			_, _, _ = n.PollOnce()
			for now := n.cfg.Clock.Now(); !next.After(now); {
				next = next.Add(interval) // skip the ticks a slow poll missed
			}
		}
	}()
}

// StopPolling halts the background poll loop.
func (n *Node) StopPolling() {
	n.mu.Lock()
	stop, done := n.stopPoll, n.pollDone
	n.stopPoll, n.pollDone = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close leaves the cluster and releases all resources.
func (n *Node) Close() error {
	n.StopPolling()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	var firstErr error
	if n.mon != nil {
		if err := n.mon.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if n.ctl != nil {
		if err := n.ctl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if n.regCli != nil {
		if err := n.regCli.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// History store last, once nothing can append anymore: heads are
	// persisted, the WAL sealed and retired, so a clean shutdown never
	// needs replay on the next start.
	if err := n.d.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// formatMetric renders a metric value in /proc style: floats with sensible
// precision, byte and rate quantities as integers.
func formatMetric(id metrics.ID, v float64) string {
	switch id {
	case metrics.LOADAVG:
		return fmt.Sprintf("%.2f\n", v)
	case metrics.NETRTT, metrics.NETDELAY:
		return fmt.Sprintf("%.6f\n", v)
	default:
		return fmt.Sprintf("%.0f\n", v)
	}
}

// SysinfoSource adapts the live /proc readers to the dmon.Source interface,
// deriving rates from successive snapshots.
type SysinfoSource struct {
	clk clock.Clock

	mu      sync.Mutex
	tracker sysinfo.RateTracker
	snap    *sysinfo.Snapshot
	rates   sysinfo.Rates
	start   time.Time
	lastAt  time.Time
}

// NewSysinfoSource returns a live source; samples refresh at most once per
// 100 ms to keep repeated Sample calls cheap.
func NewSysinfoSource(clk clock.Clock) *SysinfoSource {
	s := &SysinfoSource{clk: clk, start: clk.Now()}
	s.refresh()
	return s
}

func (s *SysinfoSource) refresh() {
	now := s.clk.Now()
	if s.snap != nil && now.Sub(s.lastAt) < 100*time.Millisecond {
		return
	}
	snap, err := sysinfo.Read()
	if err != nil {
		return // keep the previous snapshot
	}
	s.rates = s.tracker.Update(snap, now.Sub(s.start).Seconds())
	s.snap = snap
	s.lastAt = now
}

// Sample implements dmon.Source from the latest /proc snapshot.
func (s *SysinfoSource) Sample(id metrics.ID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refresh()
	if s.snap == nil {
		return 0
	}
	switch id {
	case metrics.LOADAVG:
		return s.snap.Load1
	case metrics.RUNQUEUE:
		return float64(s.snap.Runnable)
	case metrics.FREEMEM:
		return float64(s.snap.MemAvailable)
	case metrics.TOTALMEM:
		return float64(s.snap.MemTotal)
	case metrics.DISKREADS:
		return s.rates.DiskReadsPerSec
	case metrics.DISKWRITES:
		return s.rates.DiskWritesPerSec
	case metrics.SECTORSREAD:
		return s.rates.SectorsReadPerSec
	case metrics.SECTORSWRITTEN:
		return s.rates.SectorsWrittenPerSec
	case metrics.DISKUSAGE:
		return s.rates.SectorsReadPerSec + s.rates.SectorsWrittenPerSec
	case metrics.NETBW:
		return s.rates.NetRxBitsPerSec + s.rates.NetTxBitsPerSec
	case metrics.NETAVAIL:
		// Without kernel help the best user-space estimate is link class
		// minus observed traffic, assuming Fast Ethernet per the paper.
		avail := 100e6 - (s.rates.NetRxBitsPerSec + s.rates.NetTxBitsPerSec)
		if avail < 0 {
			avail = 0
		}
		return avail
	case metrics.NETRTT, metrics.NETDELAY:
		return 0 // requires per-connection kernel state; not visible here
	case metrics.NETRETRANS, metrics.NETLOST:
		return 0
	case metrics.CACHE_MISS, metrics.INSTRUCTIONS:
		// PMC counters need kernel/MSR access; approximate with CPU
		// utilization-scaled synthetic rates so the metric stays live.
		return s.rates.CPUUtilization * 1e6
	case metrics.CYCLES:
		return s.rates.CPUUtilization * 2e8
	}
	return 0
}
