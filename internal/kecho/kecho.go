// Package kecho is the user-space reproduction of KECho, the kernel-level
// event channel infrastructure dproc is built on. It provides peer-to-peer
// publish/subscribe channels: every member runs a listener, members discover
// each other through the channel registry, and events are submitted directly
// from publisher to every subscriber with no central collection point — the
// property the paper contrasts with Supermon's central data concentrator.
//
// There is one receive pipeline: every peer connection is read by one
// goroutine parked in the runtime netpoller (readLoop), which decodes each
// frame in its receive buffer and runs the relay gate. Delivery is
// poll-driven by default: received events are copied into a bounded inbox
// and dispatched to handlers when the owner calls Poll, matching d-mon's
// one-second polling of its listening sockets. EventDriven is the
// alternative: the reader runs the handlers in place on frame receipt,
// serialized across connections by a per-channel mutex and backpressured —
// the latency-floor mode; see DESIGN.md §13.
//
// Publishing is asynchronous: Submit enqueues the event on each peer's
// bounded outbound queue and returns. A small fixed pool of reactor writer
// goroutines (Options.Writers) drains every outbox through a ready-ring —
// coalescing bursts into batch frames — so a stalled subscriber costs the
// publisher an enqueue (and eventually a counted queue-overflow drop)
// rather than a write deadline, and an idle peer costs no writer goroutine.
// The channel is also self-healing: joins tolerate unreachable peers,
// writers bound frame writes with a deadline and drop peers that exceed it,
// and a per-channel reconnect supervisor heartbeats the registry and
// re-dials missing peers with exponential backoff and jitter, so the mesh
// converges again after peer crashes, partitions, or a registry restart
// without any manual RefreshPeers call.
//
// Channels are flat full meshes by default: every member connects to every
// other and a publish touches every peer directly. Options.Topology replaces
// that with a relay-tree overlay (internal/overlay): members connect only to
// their tree neighbors, publishes carry a hop-count trailer, and interior
// members re-publish received records down their subtrees — same delivery
// semantics (every member sees each record exactly once, enforced by a
// per-origin sequence dedup gate), but the publisher's cost is O(branching
// factor) instead of O(members). The supervisor doubles as the re-parenting
// mechanism: the tree is a pure function of the registry roster, so when a
// relay dies and its TTL expires, every survivor independently re-derives
// the same tree over the remaining members (DESIGN.md §14).
package kecho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// Transport supplies the listen/dial primitives the channel uses, so tests
// can route peer traffic through a fault-injection layer (internal/faultnet).
type Transport interface {
	Listen(network, address string) (net.Listener, error)
	DialTimeout(network, address string, timeout time.Duration) (net.Conn, error)
}

// tcpTransport is the default plain-TCP transport.
type tcpTransport struct{}

func (tcpTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (tcpTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, address, timeout)
}

// Frame types on peer connections.
const (
	frameHello uint8 = iota + 1
	frameEvent
	// frameBatch carries several coalesced event records in one frame
	// (wire.EncodeBatch); receivers unpack it transparently, so batching is
	// invisible above the transport.
	frameBatch
)

// DispatchMode selects how received events reach handlers.
type DispatchMode int

const (
	// Polled queues events until Poll is called (the paper's d-mon model).
	Polled DispatchMode = iota
	// EventDriven invokes handlers on frame receipt, in place on the
	// connection's reader goroutine. Dispatch is serialized (one handler
	// call at a time regardless of how many peer connections feed the
	// channel) and backpressured: a slow handler stops its connection's
	// reads, so pressure propagates through the socket to the publisher's
	// outbox and surfaces as publisher-side QueueDrops instead of local
	// drops. On an interior relay that reader also forwards: a record is
	// forwarded before its handlers run, but the records behind it wait out
	// the handler — keep relay handlers short, or the relay Polled.
	EventDriven
)

// String names the mode as the -dispatch flag spells it.
func (m DispatchMode) String() string {
	switch m {
	case Polled:
		return "poll"
	case EventDriven:
		return "event"
	}
	return fmt.Sprintf("DispatchMode(%d)", int(m))
}

// ParseDispatchMode maps a -dispatch flag value to its mode.
func ParseDispatchMode(s string) (DispatchMode, error) {
	switch s {
	case "", "poll", "polled":
		return Polled, nil
	case "event", "event-driven", "eventdriven", "immediate":
		return EventDriven, nil
	}
	return 0, fmt.Errorf("kecho: unknown dispatch mode %q (want poll or event)", s)
}

// Event is one message delivered on a channel.
//
// Ownership: Payload is loaned to handlers for the duration of the handler
// call. In Polled mode it points into a pooled buffer the channel recycles
// as soon as every handler for the event has returned; in EventDriven mode
// it aliases the connection's receive buffer, reused by the next frame.
// Either way, a handler that needs the bytes past its own return must copy
// them (CopyPayload); retaining Payload itself observes whatever event
// recycles the buffer next. See DESIGN.md §8.
type Event struct {
	// Channel is the channel name the event arrived on.
	Channel string
	// From is the member ID of the publisher.
	From string
	// Seq is the publisher's per-channel sequence number.
	Seq uint64
	// Payload is the opaque event body, valid only during handler dispatch.
	Payload []byte
	// Recv is the local receive time (on the channel clock).
	Recv time.Time
	// TraceID is non-zero when the publisher sampled this event for
	// tracing (see internal/obs); it rides a trailing wire-frame extension
	// and lets a subscriber continue the event's span chain.
	TraceID uint64

	// pooled marks Payload as drawn from the channel's recycled buffers;
	// Poll returns it to the freelist after the handlers run.
	pooled bool
}

// CopyPayload returns an independent copy of the event body, for handlers
// that need it beyond their own return.
func (ev Event) CopyPayload() []byte {
	out := make([]byte, len(ev.Payload))
	copy(out, ev.Payload)
	return out
}

// Handler consumes events; see Channel.Subscribe.
type Handler func(Event)

// Stats counts channel traffic; all fields are cumulative.
//
// BytesSent and BytesRecv both count event *payload* bytes — the opaque
// body handed to Submit — excluding the envelope (publisher ID, sequence
// number) and frame/batch framing, so a loopback pair's sent and received
// counters agree regardless of how the transport packs frames.
type Stats struct {
	// EventsSent counts events accepted into peer outboxes (one per peer
	// per Submit); enqueue-time accounting, so delivery failures after the
	// enqueue surface in QueueDrops and DeadlineDrops, not here.
	EventsSent uint64
	EventsRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
	// Dropped counts events discarded because the inbox was full.
	Dropped uint64
	// JoinSkips counts registered peers that were unreachable at Join time
	// and left for the reconnect supervisor to retry.
	JoinSkips uint64
	// Redials counts peer dial attempts made by the reconnect supervisor.
	Redials uint64
	// Reconnects counts peer connections the supervisor re-established.
	Reconnects uint64
	// DeadlineDrops counts sends aborted because the peer did not accept the
	// frame within the write deadline (slow or wedged subscriber).
	DeadlineDrops uint64
	// QueueDrops counts events accepted (or offered) to a peer's outbound
	// queue that were discarded before a completed write: the queue was full
	// at Submit time, the event was still queued or mid-write when the peer
	// was torn down, or a single event exceeded the wire frame limit. It is
	// the publisher-side loss counter: EventsSent - QueueDrops bounds actual
	// frame deliveries.
	QueueDrops uint64
	// BatchesSent counts multi-event frames written: wake-ups where a writer
	// found more than one event queued and coalesced them into one frame.
	BatchesSent uint64
	// Relayed counts per-peer forwards of records received from other
	// members — the relay-tree re-publish work this member performed on
	// behalf of the overlay. Each forward is also counted in EventsSent.
	Relayed uint64
	// RelayDups counts received records suppressed by the relay dedup gate:
	// already-seen (or reordered past the per-origin high-water sequence)
	// copies arriving over redundant transient paths during re-parenting.
	// Suppressed records are neither delivered nor forwarded.
	RelayDups uint64
	// Malformed counts peer connections dropped because a batch frame or an
	// event record on them failed to decode (the supervisor re-dials).
	Malformed uint64
}

// Options tunes channel behaviour; the zero value gives a polled channel
// with the default inbox size and self-healing enabled.
type Options struct {
	// Dispatch selects polled (default) or event-driven handler dispatch.
	Dispatch DispatchMode
	// InboxSize bounds the polled-event queue; 0 means 4096. EventDriven
	// channels have no inbox.
	InboxSize int
	// Transport provides listen/dial; nil uses plain TCP.
	Transport Transport
	// DialTimeout bounds each peer dial; 0 means 2s.
	DialTimeout time.Duration
	// WriteDeadline bounds each frame write to a peer, so one stalled peer
	// cannot head-of-line-block the fan-out; 0 means 5s, negative disables.
	WriteDeadline time.Duration
	// OutboxSize bounds each peer's outbound event queue, drained by that
	// peer's writer goroutine; 0 means 1024. A Submit to a peer whose queue
	// is full drops the event for that peer (counted in Stats.QueueDrops)
	// instead of blocking the publisher.
	OutboxSize int
	// MaxBatch caps how many queued events a writer coalesces into one batch
	// frame per wake-up; 0 means 64, 1 disables batching.
	MaxBatch int
	// Writers sizes the channel's reactor writer pool — the fixed set of
	// goroutines that drain every peer's outbox. 0 scales with GOMAXPROCS
	// (floor 2, cap 8); the floor keeps one stalled peer from blocking the
	// whole fan-out, since a peer occupies at most one writer at a time.
	Writers int
	// ReconnectInterval is the supervisor's base pace for heartbeating the
	// registry and re-dialing missing peers; 0 means 250ms.
	ReconnectInterval time.Duration
	// ReconnectMax caps the supervisor's exponential backoff; 0 means 5s.
	ReconnectMax time.Duration
	// DisableReconnect turns the supervisor off (no heartbeats, no healing).
	DisableReconnect bool
	// Clock drives supervisor timers; nil uses the real clock.
	Clock clock.Clock
	// Seed feeds the supervisor's backoff jitter; 0 derives one from the
	// member ID so distinct members desynchronize deterministically.
	Seed int64
	// Metrics is the unified registry the channel registers its counters
	// and peer gauge into at Join (subsystem "channel", label = channel
	// name); nil uses a private registry. Share one registry across a
	// node's channels so health and the exporters render everything in one
	// place.
	Metrics *metrics.Registry
	// Observer collects the channel's latency histograms (queue residency,
	// batch size, propagation delay, dispatch time) and per-event trace
	// spans; nil disables observation — the data plane then pays a single
	// branch per stage.
	Observer *obs.Observer
	// Topology selects which registered members this channel connects to
	// and whether received records are re-published down the overlay
	// (internal/overlay). Nil is the flat full mesh: connect to everyone,
	// forward nothing — the behaviour of every release before the overlay,
	// with zero cost on the data plane.
	Topology overlay.Topology
	// Role is the overlay role advertised to the registry on join and on
	// every heartbeat ("" = leaf, overlay.RoleRelay = interior-capable).
	// Purely advisory for topologies that ignore roles.
	Role string
}

// DefaultOptions returns the channel defaults as an explicit Options value
// — the single source core.Defaults and the dprocd flag bindings build on,
// so the knob defaults exist in exactly one place.
func DefaultOptions() Options {
	return Options{
		InboxSize:         defaultInboxSize,
		OutboxSize:        defaultOutboxSize,
		MaxBatch:          defaultMaxBatch,
		DialTimeout:       defaultDialTimeout,
		WriteDeadline:     defaultWriteDeadline,
		ReconnectInterval: defaultReconnectInterval,
		ReconnectMax:      defaultReconnectMax,
	}
}

// Option defaults; see Options.
const (
	defaultInboxSize         = 4096
	defaultOutboxSize        = 1024
	defaultMaxBatch          = 64
	defaultDialTimeout       = 2 * time.Second
	defaultWriteDeadline     = 5 * time.Second
	defaultReconnectInterval = 250 * time.Millisecond
	defaultReconnectMax      = 5 * time.Second
)

// defaultWriters resolves Options.Writers == 0: scale with the machine but
// never below two — the fairness bound "one stalled peer delays the rest by
// at most one write deadline" needs a second writer to keep draining — and
// never above eight, past which contention on the ready ring buys nothing.
func defaultWriters() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

// Channel is one member's handle on a named event channel.
type Channel struct {
	name      string
	id        string
	reg       *registry.Client
	ln        net.Listener
	opts      Options
	transport Transport
	clk       clock.Clock

	// Resolved option values (defaults applied).
	dialTimeout   time.Duration
	writeDeadline time.Duration
	outboxSize    int
	maxBatch      int
	writers       int

	// ring schedules peers with non-empty outboxes onto the reactor writer
	// pool; see writer.go for the queue-ownership protocol.
	ring *readyRing

	// topo, maxHops and role configure the overlay (Options.Topology /
	// Options.Role); topo == nil is the flat mesh and every relay branch on
	// the data plane is skipped.
	topo    overlay.Topology
	maxHops int
	role    string

	// relayMu guards the relay dedup table. Only channels with a topology
	// touch it, and only for records that carry a hop trailer.
	relayMu   sync.Mutex
	relaySeen map[string]*relayOrigin

	mu       sync.Mutex
	peers    map[string]*peer
	handlers []Handler
	closed   bool
	// greeting holds accepted connections whose hello frame has not arrived
	// yet — owned by a reader but not yet a peer — so Close can reach them.
	greeting map[net.Conn]struct{}

	// inbox queues received events for Poll; nil in EventDriven mode, where
	// readers run the handlers in place under dispatchMu instead.
	inbox      chan Event
	dispatchMu sync.Mutex
	seq        atomic.Uint64
	stop       chan struct{}

	// payloadFree recycles inbox payload buffers: receiveEvent copies a
	// polled event's body into a buffer popped from here, and Poll pushes it
	// back after the handlers run. LIFO so the hot path stays cache-warm and
	// buffer reuse is deterministic (the ownership tests rely on that).
	payloadFree struct {
		sync.Mutex
		bufs [][]byte
	}

	// Traffic counters live in the unified metric registry (Options.Metrics
	// or a private one), registered once at Join under subsystem "channel";
	// the channel holds the atomic cells and increments them directly, so
	// the hot path is untouched while health and the exporters read the
	// same numbers.
	eventsSent    *atomic.Uint64
	eventsRecv    *atomic.Uint64
	bytesSent     *atomic.Uint64
	bytesRecv     *atomic.Uint64
	dropped       *atomic.Uint64
	joinSkips     *atomic.Uint64
	redials       *atomic.Uint64
	reconnects    *atomic.Uint64
	deadlineDrops *atomic.Uint64
	queueDrops    *atomic.Uint64
	batchesSent   *atomic.Uint64
	relayed       *atomic.Uint64
	relayDups     *atomic.Uint64
	malformed     *atomic.Uint64

	// obs collects latency histograms and trace spans; nil disables
	// observation (Options.Observer).
	obs *obs.Observer

	wg sync.WaitGroup
}

// outRecord is one encoded event record (publisher ID, seq, payload). It is
// encoded once per Submit and shared by every peer outbox — the fan-out
// enqueues the same record N times instead of copying it N times. refs
// counts the holders (each enqueued outbox plus the submitting goroutine);
// the last release returns the buffer to the pool, so the steady-state
// publish path allocates nothing.
type outRecord struct {
	buf  []byte
	refs atomic.Int32
	// traceID and enq carry the observability stamps through the outbox:
	// enq is set (on the channel clock) whenever an observer is attached,
	// so every written record yields a queue-residency sample; traceID is
	// non-zero only for sampled events. Read-only once enqueued.
	traceID uint64
	enq     time.Time
}

// relayOrigin is the relay dedup state for one record origin: the interned
// origin ID (so relayed events carry it without a per-event allocation) and
// the highest sequence number admitted from it. Sequence numbers from one
// origin arrive in order along any single overlay path, so a monotonic
// high-water mark suppresses every duplicate a redundant transient path can
// produce; a straggler reordered below the mark is suppressed too (counted
// in RelayDups) rather than delivered twice.
type relayOrigin struct {
	id   string
	last uint64
}

var outRecordPool = sync.Pool{New: func() any { return new(outRecord) }}

// maxPooledRecord caps the buffer capacity a recycled record may retain, so
// one oversized event cannot pin megabytes in the pool.
const maxPooledRecord = 64 << 10

// newOutRecord returns a pooled record with an empty buffer and one
// reference (the caller's).
func newOutRecord() *outRecord {
	r := outRecordPool.Get().(*outRecord)
	r.buf = r.buf[:0]
	r.refs.Store(1)
	r.traceID = 0
	r.enq = time.Time{}
	return r
}

// release drops one reference; the last one recycles the record. The buffer
// must not be touched after the caller's release.
func (r *outRecord) release() {
	if r.refs.Add(-1) == 0 {
		if cap(r.buf) > maxPooledRecord {
			r.buf = nil
		}
		outRecordPool.Put(r)
	}
}

type peer struct {
	id   string
	conn net.Conn
	// dialed is true when this member opened conn, false when it accepted it;
	// addPeerLocked settles a cross-dial on it.
	dialed bool
	wmu    sync.Mutex
	// outbox queues encoded event records for the peer's writer goroutine;
	// Submit enqueues without blocking and never closes it. Records are
	// refcounted: the writer releases its reference once the record is
	// written or deliberately dropped.
	outbox chan *outRecord
	// dead is closed exactly once when the peer is torn down, waking an
	// idle writer so it can exit.
	dead     chan struct{}
	downOnce sync.Once
	// pending counts events accepted for this peer (enqueued on outbox or
	// held by a writer) whose write has neither completed nor been
	// abandoned; Close's graceful drain waits for it to reach zero.
	pending atomic.Int64
	// scheduled is the queue-ownership token: true while the peer is on the
	// ready ring or being serviced by a writer (at most one of either, so
	// per-peer write order is total). A dead peer's token is held forever.
	// See writer.go.
	scheduled atomic.Bool
	// carry holds a record that would have overflowed the previous batch
	// frame; it opens the next batch. Owned by whoever holds scheduled.
	carry *outRecord
}

// close tears the peer down: closes the connection and wakes the writer.
// Safe to call from any goroutine, any number of times.
func (p *peer) close() {
	p.downOnce.Do(func() {
		close(p.dead)
		p.conn.Close()
	})
}

// send writes one frame to the peer, bounded by deadline (<= 0 disables).
func (p *peer) send(typ uint8, payload []byte, deadline time.Duration) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if deadline > 0 {
		_ = p.conn.SetWriteDeadline(time.Now().Add(deadline))
		defer p.conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(p.conn, typ, payload)
}

// ErrOutboxFull reports an enqueue that found the peer's bounded outbound
// queue full — transient backpressure from a slow-but-alive subscriber,
// distinct from a missing peer or a closed channel. Callers that fan out
// per-peer (e.g. a streaming server) should treat it as a skipped event,
// not a dead peer.
var ErrOutboxFull = errors.New("kecho: peer outbox full")

// isTimeout reports whether err is a deadline expiry rather than a dead
// connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Join creates this member's endpoint for the named channel, registers with
// the registry, and connects to every existing member. memberID must be
// unique within the channel (dproc uses the node name).
//
// The join is tolerant of unreachable peers: a registered member that cannot
// be dialed is skipped (counted in Stats.JoinSkips) and retried by the
// reconnect supervisor, rather than aborting the whole join — on a cluster
// with a crashed node, the survivors must still be able to join.
func Join(reg *registry.Client, channelName, memberID string, opts *Options) (*Channel, error) {
	if opts == nil {
		opts = &Options{}
	}
	transport := opts.Transport
	if transport == nil {
		transport = tcpTransport{}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	ln, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("kecho: listen: %w", err)
	}
	c := &Channel{
		name:          channelName,
		id:            memberID,
		reg:           reg,
		ln:            ln,
		opts:          *opts,
		transport:     transport,
		clk:           clk,
		dialTimeout:   opts.DialTimeout,
		writeDeadline: opts.WriteDeadline,
		peers:         make(map[string]*peer),
		greeting:      make(map[net.Conn]struct{}),
		stop:          make(chan struct{}),
	}
	if opts.Dispatch == Polled {
		inboxSize := opts.InboxSize
		if inboxSize == 0 {
			inboxSize = defaultInboxSize
		}
		c.inbox = make(chan Event, inboxSize)
	}
	if c.dialTimeout == 0 {
		c.dialTimeout = defaultDialTimeout
	}
	if c.writeDeadline == 0 {
		c.writeDeadline = defaultWriteDeadline
	}
	c.outboxSize = opts.OutboxSize
	if c.outboxSize <= 0 {
		c.outboxSize = defaultOutboxSize
	}
	c.maxBatch = opts.MaxBatch
	if c.maxBatch <= 0 {
		c.maxBatch = defaultMaxBatch
	}
	c.writers = opts.Writers
	if c.writers <= 0 {
		c.writers = defaultWriters()
	}
	c.ring = newReadyRing()
	c.obs = opts.Observer
	c.topo = opts.Topology
	c.role = opts.Role
	if c.topo != nil {
		c.maxHops = c.topo.MaxHops()
		c.relaySeen = make(map[string]*relayOrigin)
	}
	c.registerMetrics(opts.Metrics)
	peers, err := reg.JoinAs(channelName, memberID, ln.Addr().String(), c.role)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if c.topo != nil {
		// The join response excludes this member; the topology needs the
		// full roster (including self) to place everyone in the overlay.
		roster := append(peers, registry.Member{ID: memberID, Addr: ln.Addr().String(), Role: c.role})
		peers = c.topo.Neighbors(memberID, roster)
	}
	// The writer pool must be running before the first peer attaches: it
	// drains outboxes the moment a producer schedules a peer.
	for i := 0; i < c.writers; i++ {
		c.wg.Add(1)
		go c.writerLoop()
	}
	for _, m := range peers {
		if err := c.dialPeer(m); err != nil {
			c.joinSkips.Add(1)
			continue
		}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	if !opts.DisableReconnect {
		c.wg.Add(1)
		go c.supervise()
	}
	return c, nil
}

// registerMetrics obtains the channel's counter cells from the unified
// registry (a private one when mreg is nil), labelled with the channel
// name. Registration order fixes the health-file line order.
func (c *Channel) registerMetrics(mreg *metrics.Registry) {
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}
	mreg.Gauge("channel", c.name, "peers", func() uint64 {
		c.mu.Lock()
		n := len(c.peers)
		c.mu.Unlock()
		return uint64(n)
	})
	c.eventsSent = mreg.Counter("channel", c.name, "events_sent")
	c.eventsRecv = mreg.Counter("channel", c.name, "events_recv")
	c.bytesSent = mreg.Counter("channel", c.name, "bytes_sent")
	c.bytesRecv = mreg.Counter("channel", c.name, "bytes_recv")
	c.dropped = mreg.Counter("channel", c.name, "dropped")
	c.joinSkips = mreg.Counter("channel", c.name, "join_skips")
	c.redials = mreg.Counter("channel", c.name, "redials")
	c.reconnects = mreg.Counter("channel", c.name, "reconnects")
	c.deadlineDrops = mreg.Counter("channel", c.name, "deadline_drops")
	c.queueDrops = mreg.Counter("channel", c.name, "queue_drops")
	c.batchesSent = mreg.Counter("channel", c.name, "batches_sent")
	c.relayed = mreg.Counter("channel", c.name, "relayed")
	c.relayDups = mreg.Counter("channel", c.name, "relay_dups")
	c.malformed = mreg.Counter("channel", c.name, "malformed")
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// MemberID returns this member's ID.
func (c *Channel) MemberID() string { return c.id }

// Addr returns the listener address other members dial.
func (c *Channel) Addr() string { return c.ln.Addr().String() }

// Peers returns the IDs of currently connected peers, sorted.
func (c *Channel) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Subscribe registers a handler for incoming events. Handlers run on the
// Poll caller's goroutine (Polled mode) or, one at a time, on the receiving
// connection's reader goroutine (EventDriven mode). An EventDriven handler
// may Publish on its own channel, but blocking in it stops that connection's
// reads, and Close waits for it to return.
func (c *Channel) Subscribe(h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Copy-on-write: the slice is never appended to in place, so dispatch
	// can iterate a snapshot without copying (or allocating) per event.
	next := make([]Handler, len(c.handlers)+1)
	copy(next, c.handlers)
	next[len(c.handlers)] = h
	c.handlers = next
}

// Stats returns a snapshot of traffic counters.
func (c *Channel) Stats() Stats {
	return Stats{
		EventsSent:    c.eventsSent.Load(),
		EventsRecv:    c.eventsRecv.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesRecv:     c.bytesRecv.Load(),
		Dropped:       c.dropped.Load(),
		JoinSkips:     c.joinSkips.Load(),
		Redials:       c.redials.Load(),
		Reconnects:    c.reconnects.Load(),
		DeadlineDrops: c.deadlineDrops.Load(),
		QueueDrops:    c.queueDrops.Load(),
		BatchesSent:   c.batchesSent.Load(),
		Relayed:       c.relayed.Load(),
		RelayDups:     c.relayDups.Load(),
		Malformed:     c.malformed.Load(),
	}
}

// newPeer wraps conn as a peer with an empty outbound queue.
func (c *Channel) newPeer(id string, conn net.Conn) *peer {
	return &peer{
		id:     id,
		conn:   conn,
		outbox: make(chan *outRecord, c.outboxSize),
		dead:   make(chan struct{}),
	}
}

// getPayloadBuf pops a recycled payload buffer with capacity for n bytes, or
// allocates one. The buffer comes back via putPayloadBuf after dispatch.
func (c *Channel) getPayloadBuf(n int) []byte {
	c.payloadFree.Lock()
	for len(c.payloadFree.bufs) > 0 {
		last := len(c.payloadFree.bufs) - 1
		buf := c.payloadFree.bufs[last]
		c.payloadFree.bufs = c.payloadFree.bufs[:last]
		if cap(buf) >= n {
			c.payloadFree.Unlock()
			return buf[:0]
		}
		// Too small for this event; drop it rather than shuffling — the
		// freelist re-grows at the new high-water size.
	}
	c.payloadFree.Unlock()
	return make([]byte, 0, n)
}

// putPayloadBuf recycles an inbox payload buffer once its event has been
// dispatched. The freelist is bounded by the inbox size (there can never be
// more loaned buffers than queued events) and refuses oversized buffers.
func (c *Channel) putPayloadBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxPooledRecord {
		return
	}
	c.payloadFree.Lock()
	if len(c.payloadFree.bufs) < cap(c.inbox) {
		c.payloadFree.bufs = append(c.payloadFree.bufs, buf)
	}
	c.payloadFree.Unlock()
}

func (c *Channel) dialPeer(m registry.Member) error {
	conn, err := c.transport.DialTimeout("tcp", m.Addr, c.dialTimeout)
	if err != nil {
		return err
	}
	p := c.newPeer(m.ID, conn)
	p.dialed = true
	hello := wire.NewEncoder(64)
	hello.String(c.name)
	hello.String(c.id)
	if err := p.send(frameHello, hello.Bytes(), c.writeDeadline); err != nil {
		conn.Close()
		return err
	}
	c.mu.Lock()
	added := c.addPeerLocked(p)
	if added {
		c.wg.Add(1) // the reader's; under c.mu so Close's wait cannot miss it
	}
	c.mu.Unlock()
	if added {
		go c.readLoop(conn, p)
	}
	return nil
}

// addPeerLocked registers p as the connection to member p.id and reports
// whether it did; if not — the channel has closed, or p lost a cross-dial —
// p is closed. The caller holds c.mu. The write side needs no per-peer
// start: the shared writer pool services p once a producer schedules it.
//
// A member already connected is normally replaced: the end that opened the
// old connection has opened a new one, so it has given up on the old. But
// when each end opened one of the two (both dialed at once), "newest wins"
// has each end keep the connection the other closes; both ends then keep
// the one the lower member ID dialed. The cost: a restarted higher-ID member
// is refused until this end has seen its old connection to it die, and the
// supervisor's next round gets through (DESIGN.md §13).
func (c *Channel) addPeerLocked(p *peer) bool {
	if c.closed {
		p.close()
		return false
	}
	if old, ok := c.peers[p.id]; ok {
		if old.dialed != p.dialed && old.dialed == (c.id < p.id) {
			p.close()
			return false
		}
		old.close()
	}
	c.peers[p.id] = p
	return true
}

// dropRecord discards one event that was accepted for peer p but will never
// be written, keeping the drop counter, the peer's pending count, and the
// record's refcount in step.
func (c *Channel) dropRecord(p *peer, rec *outRecord) {
	c.queueDrops.Add(1)
	p.pending.Add(-1)
	rec.release()
}

func (c *Channel) removePeer(p *peer) {
	c.mu.Lock()
	if cur, ok := c.peers[p.id]; ok && cur == p {
		delete(c.peers, p.id)
	}
	c.mu.Unlock()
	p.close()
	// Account everything still queued as dropped. The scheduled token
	// arbitrates: if a writer holds it, that writer's own exit path drains;
	// otherwise this CAS adopts the peer (permanently — the token is never
	// released, so the dead peer cannot re-enter the ring). Producers cannot
	// enqueue anymore: the map delete above and every enqueue serialize on
	// c.mu.
	if p.scheduled.CompareAndSwap(false, true) {
		c.drainDeadPeer(p)
	}
}

// acceptLoop hands every accepted connection to a reader at once: the
// reader owns the conn from its first byte, so a dialer that never sends its
// hello holds up one goroutine for DialTimeout, not the accepts behind it.
func (c *Channel) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.greeting[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go c.readLoop(conn, nil)
	}
}

// readLoop is the one reader of peer connections — dialed or accepted, on
// every transport: a goroutine parked in the runtime netpoller, draining
// conn with a FrameReader. It owns a single receive buffer reused across
// frames, and a batch scratch reused across batch frames, so the
// steady-state receive path — read frame, unpack batch, decode records,
// dispatch — performs no allocation. p is nil for an accepted conn, whose
// first frame must be the dialer's hello, within DialTimeout. A frame or
// record that fails to decode tears the peer down (the supervisor re-dials).
func (c *Channel) readLoop(conn net.Conn, p *peer) {
	defer c.wg.Done()
	fr := wire.NewFrameReader(conn)
	if p == nil {
		// Best effort: a conn that cannot take a deadline still ends at Close.
		_ = conn.SetReadDeadline(time.Now().Add(c.dialTimeout))
		if typ, payload, err := fr.Next(); err == nil {
			p = c.acceptHello(conn, typ, payload)
		}
		_ = conn.SetReadDeadline(time.Time{})
		c.mu.Lock()
		delete(c.greeting, conn) // from here on p, or nobody, answers for conn
		added := p != nil && c.addPeerLocked(p)
		c.mu.Unlock()
		if !added {
			conn.Close() // again, if addPeerLocked refused p: harmless
			return
		}
	}
	defer c.removePeer(p)
	var batch [][]byte // zero-copy views into the frame reader's buffer
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		if batch, err = c.handleFrame(p, typ, payload, batch); err != nil {
			c.malformed.Add(1)
			return
		}
	}
}

// acceptHello decodes the hello frame that identifies the dialing member,
// returning nil if the frame is not a hello for this channel.
func (c *Channel) acceptHello(conn net.Conn, typ uint8, payload []byte) *peer {
	d := wire.NewDecoder(payload)
	chName := d.String()
	peerID := d.String()
	if typ != frameHello || d.Finish() != nil || chName != c.name || peerID == "" {
		return nil
	}
	return c.newPeer(peerID, conn)
}

// handleFrame delivers one received frame: a single event directly, a batch
// frame unpacked transparently — consumers see the same event stream whether
// or not the sender's writer coalesced. The decoded records are subslices of
// payload; they are consumed (dispatched or copied into pooled inbox
// buffers) before the caller reuses its receive buffer. batch is the
// caller's decode scratch, returned (possibly grown) for reuse. An error
// means the batch or a record in it was malformed; records ahead of the bad
// one have been delivered.
func (c *Channel) handleFrame(p *peer, typ uint8, payload []byte, batch [][]byte) ([][]byte, error) {
	switch typ {
	case frameEvent:
		return batch, c.receiveEvent(p, payload)
	case frameBatch:
		dec, err := wire.DecodeBatchInto(batch[:0], payload)
		if err != nil {
			return batch, err
		}
		for _, rec := range dec {
			if err := c.receiveEvent(p, rec); err != nil {
				return dec, err
			}
		}
		return dec, nil
	}
	return batch, nil
}

// internFrom returns the publisher ID for a decoded from field without
// allocating in the common case. Events arrive one hop from their publisher,
// so the sender ID almost always equals the peer's ID; fall back to a fresh
// string for relayed or test-injected traffic.
func (c *Channel) internFrom(p *peer, from []byte) string {
	if string(from) == p.id { // compiles to an alloc-free comparison
		return p.id
	}
	return string(from)
}

// receiveEvent decodes one event record and delivers it (inbox or in-place
// dispatch, per the channel's mode), reporting a record that does not
// decode. record aliases the connection's receive buffer: event-driven
// dispatch hands the view straight to handlers (valid for the handler call
// only), while polled delivery copies the body into a recycled buffer that
// Poll returns to the freelist after dispatch.
func (c *Channel) receiveEvent(p *peer, record []byte) error {
	recv := c.clk.Now()
	d := wire.NewDecoder(record)
	from := d.StringBytes()
	seq := d.Uint64()
	body := d.BytesFieldView()
	// A relayed record carries the hop trailer, a sampled one the trace
	// trailer (hop first — the relay fast path rewrites the hop byte at a
	// fixed offset from the end); for everything else this is a single
	// length check per extension. Both must be consumed before Finish,
	// which still rejects any other trailing bytes.
	var hops uint8
	var hopped, traced bool
	var tid uint64
	var sendNs int64
	if d.Remaining() > 0 {
		hops, hopped = d.HopExt()
		tid, sendNs, traced = d.TraceExt()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	fromID := ""
	if c.topo != nil && hopped {
		// Overlay traffic: suppress records that looped back to their
		// origin and duplicates arriving over redundant transient paths,
		// then re-publish what remains down the subtree. Suppression must
		// precede delivery and the receive counters — the overlay's
		// contract is each record delivered at most once per member.
		if string(from) == c.id {
			return nil
		}
		origin, admit := c.relayAdmit(from, seq)
		if !admit {
			c.relayDups.Add(1)
			return nil
		}
		fromID = origin
		if int(hops)+1 <= c.maxHops {
			c.relayForward(p, origin, record, hops, traced, len(body), tid)
		}
	}
	c.eventsRecv.Add(1)
	c.bytesRecv.Add(uint64(len(body)))
	if tid != 0 {
		// Cross-node propagation delay: publisher send stamp → local
		// receive, both on internal/clock time. Skew clamps to zero in the
		// observer. The decode span closes here — decode work is behind us.
		delay := time.Duration(recv.UnixNano() - sendNs)
		c.obs.ObservePropagation(delay, tid)
		if hopped {
			c.obs.ObservePropagationDepth(int(hops), delay)
		}
		c.obs.ObserveDecode(c.clk.Now().Sub(recv), tid)
	}
	if fromID == "" {
		fromID = c.internFrom(p, from)
	}
	ev := Event{
		Channel: c.name,
		From:    fromID,
		Seq:     seq,
		Payload: body,
		Recv:    recv,
		TraceID: tid,
	}
	if c.inbox == nil {
		// EventDriven: run the handlers here, one reader at a time. A slow
		// handler is never dropped on: it stops this goroutine's socket
		// reads, which fills the kernel buffers, stalls the publisher's
		// writer, and backs its outbox up into QueueDrops — backpressure
		// instead of local loss.
		c.dispatchMu.Lock()
		c.dispatch(ev)
		c.dispatchMu.Unlock()
		return nil
	}
	buf := c.getPayloadBuf(len(body))
	ev.Payload = append(buf, body...)
	ev.pooled = true
	select {
	case c.inbox <- ev:
	default:
		c.dropped.Add(1)
		c.putPayloadBuf(ev.Payload)
	}
	return nil
}

// relayAdmit is the overlay dedup gate: it interns the record's origin ID
// and admits the record only if its sequence number advances that origin's
// high-water mark. The common case — known origin, fresh sequence — costs
// one alloc-free map lookup and a pointer store under relayMu.
func (c *Channel) relayAdmit(from []byte, seq uint64) (origin string, admit bool) {
	c.relayMu.Lock()
	o, ok := c.relaySeen[string(from)] // compiles to an alloc-free lookup
	if !ok {
		o = &relayOrigin{id: string(from)}
		c.relaySeen[o.id] = o
	}
	// Publisher sequence numbers start at 1, so the zero-valued mark admits
	// the first record from a new origin.
	admit = seq > o.last
	if admit {
		o.last = seq
	}
	c.relayMu.Unlock()
	return o.id, admit
}

// relayForward re-publishes a received record down the overlay: every
// current peer except the one it arrived from and its origin gets the same
// pooled copy with the hop count incremented in place. On a converged relay
// tree the peer set is exactly parent+children, so this floods the record
// to the rest of the tree with no routing state; the hop bound and the
// dedup gate make transient non-tree peerings (mid-re-parenting) safe. Like
// Submit, the re-fan-out is encode-free and enqueue-only: one buffer copy,
// shared by reference across the outboxes, with overflow counted in
// QueueDrops.
func (c *Channel) relayForward(src *peer, origin string, record []byte, hops uint8, traced bool, bodyLen int, tid uint64) {
	rec := newOutRecord()
	rec.buf = append(rec.buf, record...)
	pos := len(rec.buf) - 1
	if traced {
		pos -= wire.TraceExtSize
	}
	rec.buf[pos] = hops + 1
	if c.obs != nil {
		rec.enq = c.clk.Now()
		rec.traceID = tid
	}
	sent := 0
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		rec.release()
		return
	}
	for id, p := range c.peers {
		if p == src || id == origin {
			continue
		}
		p.pending.Add(1)
		rec.refs.Add(1)
		select {
		case p.outbox <- rec:
			sent++
			c.schedule(p)
		default:
			p.pending.Add(-1)
			rec.refs.Add(-1)
			c.queueDrops.Add(1)
		}
	}
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.relayed.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * bodyLen))
	rec.release()
}

// observeWritten records outbox residency for every record in a just-written
// frame plus the frame's batch size. It must run before the records are
// released: release can hand a record back to the pool, where a concurrent
// Submit would reset enq and traceID under us.
func (c *Channel) observeWritten(batch []*outRecord) {
	if c.obs == nil {
		return
	}
	now := c.clk.Now()
	for _, rec := range batch {
		if !rec.enq.IsZero() {
			c.obs.ObserveQueue(now.Sub(rec.enq), rec.traceID)
		}
	}
	c.obs.ObserveBatch(len(batch))
}

func (c *Channel) dispatch(ev Event) {
	// Subscribe builds a fresh slice on every registration, so the snapshot
	// taken here stays immutable after the lock is released — no per-event
	// copy needed on the hot path.
	c.mu.Lock()
	handlers := c.handlers
	c.mu.Unlock()
	if c.obs != nil && ev.TraceID != 0 {
		start := c.clk.Now()
		for _, h := range handlers {
			h(ev)
		}
		c.obs.ObserveDispatch(c.clk.Now().Sub(start), ev.TraceID)
		return
	}
	for _, h := range handlers {
		h(ev)
	}
}

// Poll dispatches the events queued at the moment of the call to the
// subscribed handlers, returning the number processed. The drain is bounded
// by a snapshot of the queue length, so a producer that keeps pace with the
// consumer cannot live-lock the caller's poll tick: events arriving during
// the drain wait for the next Poll. It mirrors d-mon's per-second socket
// poll; meaningful only in Polled mode. In EventDriven mode there is no
// inbox and Poll reports zero — callers may keep a poll tick running
// unchanged when they flip modes.
func (c *Channel) Poll() int {
	n := 0
	for max := len(c.inbox); n < max; {
		select {
		case ev := <-c.inbox:
			c.dispatch(ev)
			if ev.pooled {
				// Every handler has returned; the loaned buffer goes back to
				// the freelist for the next received event.
				c.putPayloadBuf(ev.Payload)
			}
			n++
		default:
			return n
		}
	}
	return n
}

// Pending reports how many events are queued awaiting Poll; always zero in
// EventDriven mode.
func (c *Channel) Pending() int { return len(c.inbox) }

// encodeRecord encodes payload as one event record (publisher ID, sequence
// number, body) into a pooled record holding a single reference — the
// caller's. The wire layout matches Encoder.String + Encoder.Uint64 +
// Encoder.BytesField, decoded by receiveEvent. On an overlay channel every
// record carries the hop trailer (hops = 0: fresh from its publisher) so
// relays can rewrite the count in place; a sampled event (tid != 0)
// additionally carries the trace trailer, after the hop trailer, so
// subscribers can measure cross-node propagation against the send stamp.
func (c *Channel) encodeRecord(payload []byte, tid uint64, broadcast bool) *outRecord {
	rec := newOutRecord()
	rec.buf = wire.AppendString(rec.buf, c.id)
	rec.buf = binary.BigEndian.AppendUint64(rec.buf, c.seq.Add(1))
	rec.buf = wire.AppendBytesField(rec.buf, payload)
	// Only broadcast records on an overlay channel carry the hop trailer —
	// it is what marks a record as relayable. Targeted SubmitTo records stay
	// trailer-free so receivers deliver them point-to-point and never
	// re-publish them down the tree.
	if c.topo != nil && broadcast {
		rec.buf = wire.AppendHopExt(rec.buf, 0)
	}
	if c.obs != nil {
		rec.enq = c.clk.Now()
		if tid != 0 {
			rec.traceID = tid
			rec.buf = wire.AppendTraceExt(rec.buf, tid, rec.enq.UnixNano())
		}
	}
	return rec
}

// PublishOpts carries the per-publish options of Publish. The zero value is
// the common case: an untraced event, sampled at publish time when an
// observer is attached.
type PublishOpts struct {
	// TraceID attributes the event to an existing trace span chain (0 with
	// Traced unset means "decide here by sampling").
	TraceID uint64
	// Traced marks the trace decision as already made — set it to publish
	// with an explicit TraceID, including an explicit 0 for "this event was
	// considered and not sampled" (d-mon decides at sample time). When
	// unset and TraceID is 0, Publish samples via the channel's observer.
	Traced bool
}

// Publish publishes payload to every connected peer and returns how many
// peers accepted it into their outbound queue. Publish never writes to the
// network itself: it enqueues the encoded event on each peer's bounded
// outbox and returns, so a stalled subscriber costs the publisher one
// enqueue — never a write deadline. The reactor writer pool drains the
// queues (coalescing bursts into batch frames) and drops peers whose writes
// fail or time out (the reconnect supervisor re-dials them if they come
// back). A peer whose outbox is full misses this event, counted in
// Stats.QueueDrops.
//
// On an overlay channel (Options.Topology) the connected peers are this
// member's tree neighbors and the record carries a hop trailer; interior
// members re-publish it down their subtrees, so delivery semantics —
// every live member sees the event once — match the flat mesh while the
// publisher's cost stays O(branching factor). All stamping (hop count,
// trace trailer) flows through this one entry point; Submit and
// SubmitTraced are thin wrappers.
func (c *Channel) Publish(payload []byte, opts PublishOpts) (int, error) {
	tid := opts.TraceID
	if !opts.Traced && tid == 0 {
		tid = c.obs.SampleTrace()
	}
	return c.publish(payload, tid)
}

// Submit is Publish with default options — the paper-era entry point,
// kept for compatibility.
func (c *Channel) Submit(payload []byte) (int, error) {
	return c.Publish(payload, PublishOpts{})
}

// SubmitTraced is Publish for an event whose trace decision was already
// made: traceID is the ID stamped when the event was born (0 for an
// unsampled event). The ID rides a trailing wire-frame extension so every
// downstream stage — queue, propagation, decode, dispatch — attributes its
// span to the same trace.
func (c *Channel) SubmitTraced(payload []byte, traceID uint64) (int, error) {
	return c.Publish(payload, PublishOpts{TraceID: traceID, Traced: true})
}

// publish is the shared fan-out body behind Publish.
func (c *Channel) publish(payload []byte, traceID uint64) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("kecho: channel closed")
	}
	// Encode once; every outbox shares the same record. The enqueue loop runs
	// under c.mu (it never blocks — the selects have defaults), which also
	// spares the per-Submit peers-slice copy.
	rec := c.encodeRecord(payload, traceID, true)
	sent := 0
	for _, p := range c.peers {
		// Count the event pending before the enqueue so the graceful drain
		// in Close can never observe it queued but uncounted. The reference
		// is taken before the enqueue for the same reason: the writer may
		// pull the record off the outbox immediately.
		p.pending.Add(1)
		rec.refs.Add(1)
		select {
		case p.outbox <- rec:
			sent++
			c.schedule(p)
		default:
			p.pending.Add(-1)
			rec.refs.Add(-1) // cannot hit zero: the submitter's ref is live
			c.queueDrops.Add(1)
		}
	}
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * len(payload)))
	rec.release()
	return sent, nil
}

// SubmitTo publishes payload to a single peer, used for targeted control
// messages (e.g. deploying a filter on one node). Like Submit it only
// enqueues; an overflowing outbox drops the event and returns an error
// wrapping ErrOutboxFull, so callers can tell transient backpressure (skip
// and retry later) from a peer that is not connected at all.
func (c *Channel) SubmitTo(peerID string, payload []byte) error {
	// The enqueue runs under c.mu like Submit's: removePeer's adopt-and-drain
	// relies on every producer serializing against the map delete, so a
	// record can never land on an outbox after the dead peer was drained.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("kecho: channel closed")
	}
	p, ok := c.peers[peerID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kecho: no peer %q on channel %q", peerID, c.name)
	}
	rec := c.encodeRecord(payload, 0, false)
	p.pending.Add(1)
	select {
	case p.outbox <- rec: // the caller's sole reference transfers to the outbox
		c.schedule(p)
	default:
		p.pending.Add(-1)
		c.queueDrops.Add(1)
		rec.release()
		c.mu.Unlock()
		return fmt.Errorf("%w: peer %q on channel %q", ErrOutboxFull, peerID, c.name)
	}
	c.mu.Unlock()
	c.eventsSent.Add(1)
	c.bytesSent.Add(uint64(len(payload)))
	return nil
}

// RefreshPeers re-queries the registry and dials any registered member this
// channel is not currently connected to, healing the mesh after peer
// failures or restarts. It returns how many new peers were dialed.
func (c *Channel) RefreshPeers() (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("kecho: channel closed")
	}
	c.mu.Unlock()
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return 0, err
	}
	if c.topo != nil {
		members = c.topo.Neighbors(c.id, members)
	}
	dialed := 0
	var lastErr error
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		c.mu.Lock()
		_, have := c.peers[m.ID]
		c.mu.Unlock()
		if have {
			continue
		}
		if err := c.dialPeer(m); err != nil {
			lastErr = err
			continue
		}
		dialed++
	}
	return dialed, lastErr
}

// DesiredPeers reports, from the registry's current roster, the sorted IDs
// of the members this channel should be connected to: every other member on
// a flat channel, or the topology's neighbor set on an overlay channel. It
// is the target set WaitForPeers converges toward.
func (c *Channel) DesiredPeers() ([]string, error) {
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return nil, err
	}
	if c.topo != nil {
		members = c.topo.Neighbors(c.id, members)
	}
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		out = append(out, m.ID)
	}
	sort.Strings(out)
	return out, nil
}

// --- reconnect supervisor ---

// sleepInterruptible waits for d on the channel clock, returning false if
// the channel is closed first.
func (c *Channel) sleepInterruptible(d time.Duration) bool {
	fired := make(chan struct{})
	t := c.clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-c.stop:
		t.Stop()
		return false
	}
}

// supervise is the self-healing loop: every interval it heartbeats the
// registry (keeping this member alive and transparently re-registering
// after a registry restart) and re-dials any registered member it is not
// connected to. Failures back the loop off exponentially with jitter; a
// clean round resets it to the base interval.
func (c *Channel) supervise() {
	defer c.wg.Done()
	base := c.opts.ReconnectInterval
	if base <= 0 {
		base = defaultReconnectInterval
	}
	max := c.opts.ReconnectMax
	if max <= 0 {
		max = defaultReconnectMax
	}
	if max < base {
		max = base
	}
	seed := c.opts.Seed
	if seed == 0 {
		for _, b := range []byte(c.name + "/" + c.id) {
			seed = seed*131 + int64(b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	backoff := base
	for {
		// Jitter desynchronizes members so a recovering registry or peer is
		// not hit by the whole cluster in the same instant.
		d := backoff + time.Duration(rng.Int63n(int64(backoff)/4+1))
		if !c.sleepInterruptible(d) {
			return
		}
		if c.superviseOnce() {
			backoff = base
		} else if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

// superviseOnce performs one heartbeat + heal round, reporting whether it
// completed without errors. On an overlay channel the round is also the
// re-parenting mechanism: the desired neighbor set is re-derived from the
// current roster, missing neighbors are dialed, and connected members that
// are no longer neighbors are pruned — so when the registry's TTL ages out
// a dead relay, every survivor converges on the tree over the remaining
// members within a supervisor round of the expiry.
func (c *Channel) superviseOnce() bool {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return true
	}
	healthy := true
	if _, err := c.reg.HeartbeatAs(c.name, c.id, c.ln.Addr().String(), c.role); err != nil {
		healthy = false
	}
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return false
	}
	if c.topo != nil {
		// Lookup includes this member (it joined and heartbeats), so the
		// roster is complete; Neighbors never returns self.
		members = c.topo.Neighbors(c.id, members)
	}
	want := make(map[string]bool, len(members))
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		want[m.ID] = true
		c.mu.Lock()
		_, have := c.peers[m.ID]
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return true
		}
		if have {
			continue
		}
		c.redials.Add(1)
		if err := c.dialPeer(m); err != nil {
			healthy = false
			continue
		}
		c.reconnects.Add(1)
	}
	if c.topo != nil {
		// Prune connections to members the current tree does not pair us
		// with. Their queued records drain into QueueDrops via the usual
		// teardown accounting; records they would have delivered now travel
		// the re-derived tree.
		var prune []*peer
		c.mu.Lock()
		for id, p := range c.peers {
			if !want[id] {
				prune = append(prune, p)
			}
		}
		c.mu.Unlock()
		for _, p := range prune {
			c.removePeer(p)
		}
	}
	return healthy
}

// Close leaves the channel: stops the supervisor, gives the per-peer
// writers a bounded chance to drain events already accepted by Submit,
// closes the listener and all peer connections, waits for goroutines to
// finish, and deregisters from the registry last — so a racing supervisor
// round cannot re-register a member that is going away.
//
// The drain is best-effort, bounded by one write deadline across all peers:
// events still queued for a peer that cannot absorb them in that time are
// discarded and counted in Stats.QueueDrops.
func (c *Channel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	for conn := range c.greeting {
		conn.Close() // its reader fails the hello read and exits
	}
	c.mu.Unlock()

	close(c.stop)
	err := c.ln.Close()
	c.drainOutboxes(peers)
	for _, p := range peers {
		p.close()
	}
	// Closing the ring lets the writers finish whatever is still queued
	// (writes against just-closed conns fail fast and drain into QueueDrops)
	// and exit; the readers exit on their closed conns.
	c.ring.close()
	c.wg.Wait()
	_ = c.reg.Leave(c.name, c.id)
	return err
}

// drainOutboxes waits for the peers' writers to flush every event already
// accepted by Submit (the per-peer pending count reaching zero), giving up
// after one write deadline — the bound a single stalled peer could already
// cost a writer. A peer whose writer has died is skipped: nothing will
// consume its outbox again, and its remnants are counted in QueueDrops by
// the writer's exit drain.
func (c *Channel) drainOutboxes(peers []*peer) {
	bound := c.writeDeadline
	if bound <= 0 {
		bound = defaultWriteDeadline
	}
	deadline := time.Now().Add(bound)
	for _, p := range peers {
		for p.pending.Load() > 0 && time.Now().Before(deadline) {
			select {
			case <-p.dead:
			default:
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
}

// WaitForPeers blocks until the channel has at least n connected peers or
// the timeout elapses, reporting success. Tests and benchmarks use it to
// avoid racing the mesh construction.
func (c *Channel) WaitForPeers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		have := len(c.peers)
		c.mu.Unlock()
		if have >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
