// Package kecho is the user-space reproduction of KECho, the kernel-level
// event channel infrastructure dproc is built on. It provides peer-to-peer
// publish/subscribe channels: every member runs a listener, members discover
// each other through the channel registry, and events are published directly
// from publisher to every subscriber with no central collection point — the
// property the paper contrasts with Supermon's central data concentrator.
//
// The package has three parts (DESIGN.md §13):
//
//   - conn (conn.go, writer.go, ring.go): one connection per peer, read by
//     one goroutine parked in the runtime netpoller and written by a small
//     fixed pool of reactor writers that drain every peer's bounded outbox,
//     coalescing bursts into batch frames.
//   - peerset (peerset.go): which members this one is connected to. One
//     routine derives the neighbour set from a registry roster through
//     Options.Topology, dials what is missing and, on a relay tree, drops
//     what is extra. Join runs it on the join response, RefreshPeers on
//     demand and the reconnect supervisor on every heartbeat round, so the
//     channel heals after peer crashes, partitions or a registry restart.
//   - channel (channel.go): Publish, the receive gate and handler dispatch.
//     Publishing only enqueues. Delivery is poll-driven by default —
//     received frames wait whole in a bounded inbox for Poll, matching
//     d-mon's one-second polling of its sockets — or EventDriven: the reader
//     runs the handlers in place on frame receipt.
//
// The topology is overlay.FullMesh unless Options.Topology says otherwise:
// every member connects to every other and nothing is forwarded. On an
// overlay.RelayTree members connect only to their tree neighbours and
// interior members re-publish received records down their subtrees — every
// member still sees each record exactly once, at a publisher cost of
// O(branching factor) instead of O(members).
package kecho

import (
	"errors"
	"fmt"
	"net"
	"runtime"
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
// call. In Polled mode it points into the arena of the frame the event
// arrived in, which the channel recycles once the Poll that dispatched the
// frame returns; in EventDriven mode it aliases the connection's receive
// buffer, reused by the next frame. Either way, a handler that needs the
// bytes past its own return must copy them (append([]byte(nil),
// ev.Payload...)); retaining Payload itself observes whatever frame reuses
// the memory next. See DESIGN.md §8.
type Event struct {
	// Channel is the channel name the event arrived on.
	Channel string
	// From is the member ID of the publisher.
	From string
	// Seq is the publisher's per-channel sequence number.
	Seq uint64
	// Payload is the opaque event body, valid only during handler dispatch.
	Payload []byte
	// Recv is when the frame carrying the event was read (on the channel
	// clock): every event of one batch frame carries the same stamp.
	Recv time.Time
	// TraceID is non-zero when the publisher sampled this event for
	// tracing (see internal/obs); it rides a trailing wire-frame extension
	// and lets a subscriber continue the event's span chain.
	TraceID uint64
}

// Handler consumes events; see Channel.Subscribe.
type Handler func(Event)

// Stats counts channel traffic; all fields are cumulative.
//
// BytesSent and BytesRecv both count event *payload* bytes — the opaque
// body handed to Publish — excluding the envelope (publisher ID, sequence
// number) and frame/batch framing, so a loopback pair's sent and received
// counters agree regardless of how the transport packs frames.
type Stats struct {
	// EventsSent counts events accepted into peer outboxes (one per peer
	// per Publish); enqueue-time accounting, so delivery failures after the
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
	// Reconnects counts peer connections the supervisor re-established and
	// kept: a dial that lost the cross-dial tie-break is a Redial only.
	Reconnects uint64
	// DeadlineDrops counts sends aborted because the peer did not accept the
	// frame within the write deadline (slow or wedged subscriber).
	DeadlineDrops uint64
	// QueueDrops counts events accepted (or offered) to a peer's outbound
	// queue that were discarded before a completed write: the queue was full
	// at publish time, the event was still queued or mid-write when the peer
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
	// WrongOrigin counts un-relayed records (no hop trailer) refused for
	// naming a publisher other than the peer that sent them.
	WrongOrigin uint64
	// Malformed counts peer connections dropped because a batch frame or an
	// event record on them failed to decode (the supervisor re-dials).
	Malformed uint64
	// PeerChanges counts changes to the peer set — a connection added,
	// replaced or removed — each of which wakes the WaitPeers waiters once.
	PeerChanges uint64
}

// Options tunes channel behaviour; the zero value gives a polled full-mesh
// channel with the default queue sizes and self-healing enabled.
type Options struct {
	// Dispatch selects polled (default) or event-driven handler dispatch.
	Dispatch DispatchMode
	// InboxSize bounds the polled-event queue, in events; 0 means 4096. A
	// frame that arrives with less room keeps its first records and drops
	// the rest (Stats.Dropped). The bound is not preallocated: the inbox
	// holds only the frames queued since the last Poll. EventDriven
	// channels have no inbox.
	InboxSize int
	// Transport provides listen/dial; nil uses plain TCP.
	Transport wire.Transport
	// WriteDeadline bounds each frame write to a peer, so one stalled peer
	// cannot head-of-line-block the fan-out; 0 means 5s, negative disables.
	WriteDeadline time.Duration
	// OutboxSize bounds each peer's outbound event queue, drained by the
	// writer pool; 0 means 1024. A Publish to a peer whose queue is full
	// drops the event for that peer (counted in Stats.QueueDrops) instead
	// of blocking the publisher.
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
	// registry and re-dialing missing peers; 0 means 250ms. Failed rounds
	// back off exponentially up to 5s (reconnectMax), or to
	// ReconnectInterval when that is longer.
	ReconnectInterval time.Duration
	// DisableReconnect turns the supervisor off (no heartbeats, no healing).
	DisableReconnect bool
	// Clock is the node clock: it stamps received events and paces the
	// supervisor; nil uses the real clock. Socket deadlines and wait guards
	// run on the transport's I/O clock instead (clock.IO).
	Clock clock.Clock
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
	// and how far received records are re-published down the overlay
	// (internal/overlay). Nil means overlay.FullMesh: connect to everyone,
	// forward nothing, publish without a hop trailer.
	Topology overlay.Topology
	// Role is the overlay role advertised to the registry on join and on
	// every heartbeat ("" = leaf, overlay.RoleRelay = interior-capable).
	// Purely advisory for topologies that ignore roles.
	Role string
}

// dialTimeout bounds each peer dial, and how long an accepted connection may
// take to send its hello.
const dialTimeout = 2 * time.Second

// reconnectMax caps the supervisor's exponential backoff.
const reconnectMax = 5 * time.Second

// defaultWriteDeadline is Options.WriteDeadline's default. Close also drains
// for this long when write deadlines are disabled.
const defaultWriteDeadline = 5 * time.Second

// withDefaults returns o with every unset field at its default. It is the
// only place defaults are applied: Join runs the caller's Options through it
// and reads nothing but the result, and DefaultOptions is its value on the
// zero Options. It is idempotent.
func (o Options) withDefaults() Options {
	if o.InboxSize <= 0 {
		o.InboxSize = 4096
	}
	if o.Transport == nil {
		o.Transport = wire.TCP{}
	}
	if o.WriteDeadline == 0 {
		o.WriteDeadline = defaultWriteDeadline
	}
	if o.OutboxSize <= 0 {
		o.OutboxSize = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.Writers <= 0 {
		// Scale with the machine but never below two — the fairness bound
		// "one stalled peer delays the rest by at most one write deadline"
		// needs a second writer to keep draining — and never above eight,
		// past which contention on the ready ring buys nothing.
		o.Writers = min(max(runtime.GOMAXPROCS(0), 2), 8)
	}
	if o.ReconnectInterval <= 0 {
		o.ReconnectInterval = 250 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	if o.Topology == nil {
		o.Topology = overlay.FullMesh{}
	}
	return o
}

// DefaultOptions returns the channel defaults as an explicit Options value
// — the single source core.Defaults and the dprocd flag bindings build on,
// so the knob defaults exist in exactly one place.
func DefaultOptions() Options { return Options{}.withDefaults() }

// Channel is one member's handle on a named event channel.
type Channel struct {
	name string
	id   string
	reg  *registry.Client
	ln   net.Listener
	// opts is the caller's Options with every default applied.
	opts Options
	// clk is the node clock (Options.Clock); io is the transport's I/O
	// clock (clock.IO), which socket deadlines and wait guards read.
	clk clock.Clock
	io  clock.Clock
	// obs collects latency histograms and trace spans; nil disables
	// observation (Options.Observer).
	obs *obs.Observer
	// maxHops is the topology's forwarding radius. Zero — the full mesh —
	// means this member publishes without a hop trailer, forwards nothing
	// and never prunes a connection.
	maxHops int

	// ring schedules peers with non-empty outboxes onto the reactor writer
	// pool; see writer.go for the queue-ownership protocol.
	ring *readyRing

	// relayMu guards the relay dedup table, touched only for records that
	// carry a hop trailer.
	relayMu   sync.Mutex
	relaySeen map[string]*relayOrigin

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool
	// peersChanged is closed and replaced, under mu, on every change to
	// peers: WaitPeers waits on the one it read with its snapshot.
	peersChanged chan struct{}
	// greeting holds accepted connections whose hello frame has not arrived
	// yet — owned by a reader but not yet a peer — so Close can reach them.
	greeting map[net.Conn]struct{}
	// handlers is copy-on-write: Subscribe publishes a fresh slice (under
	// mu, which serializes subscribers), and dispatch loads it lock-free.
	handlers atomic.Pointer[[]Handler]

	// The polled inbox: received frames, one arena each, queued for Poll.
	// EventDriven channels leave it empty — their readers run the handlers
	// in place under dispatchMu. inboxMu guards frames, spare and free;
	// queued counts the events in frames, written under inboxMu and read
	// without it, so Pending and an empty Poll cost one atomic load.
	inboxMu sync.Mutex
	frames  []*arena
	// spare is a drained queue's array, kept for the next Poll's swap.
	spare []*arena
	// free recycles drained arenas. LIFO so the hot path stays cache-warm
	// and reuse is deterministic (the ownership tests rely on that).
	free   []*arena
	queued atomic.Int64

	dispatchMu sync.Mutex
	seq        atomic.Uint64
	stop       chan struct{}
	// closing is set once Close starts draining; from then on a writer
	// that resolves a peer's last pending record sends one non-blocking
	// wake on drained, which Close's drain waits on.
	closing atomic.Bool
	drained chan struct{}

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
	wrongOrigin   *atomic.Uint64
	malformed     *atomic.Uint64
	peerChanges   *atomic.Uint64

	wg sync.WaitGroup
}

// errClosed is returned by operations on a channel after Close.
var errClosed = errors.New("kecho: channel closed")

// Join creates this member's endpoint for the named channel, registers with
// the registry, and connects to the members its topology pairs it with.
// memberID must be unique within the channel (dproc uses the node name).
//
// The join is tolerant of unreachable peers: a registered member that cannot
// be dialed is skipped (counted in Stats.JoinSkips) and retried by the
// reconnect supervisor, rather than aborting the whole join — on a cluster
// with a crashed node, the survivors must still be able to join.
func Join(reg *registry.Client, channelName, memberID string, opts *Options) (*Channel, error) {
	if opts == nil {
		opts = &Options{}
	}
	o := opts.withDefaults()
	ln, err := o.Transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("kecho: listen: %w", err)
	}
	c := newChannel(channelName, memberID, o)
	c.reg, c.ln = reg, ln
	self := registry.Member{ID: memberID, Addr: ln.Addr().String(), Role: o.Role}
	others, err := reg.JoinAs(channelName, memberID, self.Addr, self.Role)
	if err != nil {
		ln.Close()
		return nil, err
	}
	// The writer pool must be running before the first peer attaches: it
	// drains outboxes the moment a producer schedules a peer.
	for i := 0; i < o.Writers; i++ {
		c.wg.Add(1)
		go c.writerLoop()
	}
	// The join response is everyone else; with this member appended it is
	// the roster a Lookup would return, one registry round trip earlier.
	t := c.reconcile(append(others, self))
	c.joinSkips.Add(uint64(t.failed))
	c.wg.Add(1)
	go c.acceptLoop()
	if !o.DisableReconnect {
		c.wg.Add(1)
		go c.supervise()
	}
	return c, nil
}

// newChannel builds the channel state for o (defaults applied) with its
// counters registered, not yet listening, registered or connected.
func newChannel(channelName, memberID string, o Options) *Channel {
	c := &Channel{
		name:         channelName,
		id:           memberID,
		opts:         o,
		clk:          o.Clock,
		io:           clock.IO(o.Transport),
		obs:          o.Observer,
		maxHops:      o.Topology.MaxHops(),
		ring:         newReadyRing(),
		relaySeen:    make(map[string]*relayOrigin),
		peers:        make(map[string]*peer),
		peersChanged: make(chan struct{}),
		greeting:     make(map[net.Conn]struct{}),
		stop:         make(chan struct{}),
		drained:      make(chan struct{}, 1),
	}
	c.registerMetrics(o.Metrics)
	return c
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
	c.wrongOrigin = mreg.Counter("channel", c.name, "origin_mismatch")
	c.malformed = mreg.Counter("channel", c.name, "malformed")
	c.peerChanges = mreg.Counter("channel", c.name, "peer_changes")
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// MemberID returns this member's ID.
func (c *Channel) MemberID() string { return c.id }

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
		WrongOrigin:   c.wrongOrigin.Load(),
		Malformed:     c.malformed.Load(),
		PeerChanges:   c.peerChanges.Load(),
	}
}

// Close leaves the channel: stops the supervisor, gives the writers a
// bounded chance to drain events already accepted by Publish, closes the
// listener and all peer connections, waits for goroutines to finish, and
// deregisters from the registry last — so a racing supervisor round cannot
// re-register a member that is going away.
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
	c.closing.Store(true)
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
// accepted by Publish (the per-peer pending count reaching zero), giving up
// after one write deadline on the I/O clock — the bound a single stalled
// peer could already cost a writer. A peer whose writer has died is
// skipped: nothing will consume its outbox again, and its remnants are
// counted in QueueDrops by the writer's exit drain. It sleeps on nothing: it
// wakes when a writer resolves a peer's last pending record (the caller set
// closing first), when the peer it waits for dies, or when the guard fires,
// and reports how many times it woke.
func (c *Channel) drainOutboxes(peers []*peer) (wakes int) {
	bound := c.opts.WriteDeadline
	if bound < 0 {
		// Deadlines are disabled, but Close must still not wait on a stalled
		// peer forever.
		bound = defaultWriteDeadline
	}
	var expired chan struct{}
	for _, p := range peers {
		for p.pending.Load() > 0 {
			if expired == nil {
				expired = make(chan struct{})
				guard := c.io.AfterFunc(bound, func() { close(expired) })
				defer guard.Stop()
			}
			select {
			case <-c.drained:
				wakes++
				continue
			case <-p.dead:
				wakes++
			case <-expired:
				return wakes + 1
			}
			break
		}
	}
	return wakes
}
