// Package registry implements the channel directory service of the dproc
// architecture: the user-level "channel registry" that d-mon modules contact
// to create channels and to find existing ones. The first node to contact
// the registry creates the monitoring and control channels; later nodes look
// the channels up and join, learning the current member list so they can
// establish direct peer-to-peer connections.
//
// The registry is failure-aware: members carry a last-seen timestamp
// refreshed by heartbeats, and a server configured with a TTL ages crashed
// members out of Lookup instead of advertising them forever. The client
// retries requests with exponential backoff and, because heartbeats upsert
// membership, transparently re-registers its members after a registry
// restart.
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/wire"
)

// Request and response message types.
const (
	msgCreate uint8 = iota + 1
	msgJoin
	msgLeave
	msgLookup
	msgList
	msgOK
	msgError
	msgHeartbeat
)

// Member is one channel participant: a stable ID, the TCP address its event
// listener is reachable at, and the topology role it advertised on join.
type Member struct {
	ID   string
	Addr string
	// Role is the member's overlay role ("" = leaf, "relay" = willing to
	// occupy an interior relay-tree position). It travels in the member
	// list's per-member extension block, so decoders that predate it — or
	// postdate it — parse announcements from the other side unchanged.
	Role string
}

// memberEntry is a registered member plus its liveness bookkeeping.
type memberEntry struct {
	Member
	lastSeen time.Time
}

// ServerOptions tunes the directory server; the zero value matches the
// original always-trusting behaviour (members never expire).
type ServerOptions struct {
	// Clock is the time source for member liveness; nil uses the real clock.
	// Tests use a virtual clock so expiry is deterministic.
	Clock clock.Clock
	// TTL ages out members whose last join or heartbeat is older than this;
	// 0 disables expiry.
	TTL time.Duration
}

// Server is the directory server. Zero value is not usable; construct with
// NewServer or NewServerWith.
type Server struct {
	ln  net.Listener
	clk clock.Clock
	ttl time.Duration

	expired atomic.Uint64

	mu       sync.Mutex
	channels map[string]map[string]*memberEntry // channel -> member id -> entry
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer starts a registry server listening on addr (e.g. "127.0.0.1:0")
// over plain TCP, with member expiry disabled.
func NewServer(addr string) (*Server, error) {
	ln, err := wire.TCP{}.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("registry: listen: %w", err)
	}
	return NewServerWith(ln, ServerOptions{}), nil
}

// NewServerWith serves the registry on ln, opened through the caller's
// transport, with explicit liveness options. Close closes ln.
func NewServerWith(ln net.Listener, opts ServerOptions) *Server {
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	s := &Server{
		ln:       ln,
		clk:      clk,
		ttl:      opts.TTL,
		channels: make(map[string]map[string]*memberEntry),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ExpiredMembers reports how many members have aged out since startup.
func (s *Server) ExpiredMembers() uint64 { return s.expired.Load() }

// expireLocked drops every member of ch whose last heartbeat is older than
// the TTL. Caller holds s.mu.
func (s *Server) expireLocked(ch map[string]*memberEntry, now time.Time) {
	if s.ttl <= 0 {
		return
	}
	for id, m := range ch {
		if now.Sub(m.lastSeen) > s.ttl {
			delete(ch, id)
			s.expired.Add(1)
		}
	}
}

// Addr returns the address clients should dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, closing the listener and every active client
// connection, and waits for connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Channels returns the names of all registered channels, sorted.
func (s *Server) Channels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.channels))
	for name := range s.channels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MemberCount returns the number of live members in a channel (0 if absent).
func (s *Server) MemberCount(channel string) int {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.channels[channel]; ok {
		s.expireLocked(ch, now)
	}
	return len(s.channels[channel])
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one client connection, processing requests until EOF.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := wire.NewFrameReader(conn)
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return
		}
		reply, err := s.handle(typ, payload)
		if err != nil {
			e := wire.NewEncoder(64)
			e.String(err.Error())
			if werr := wire.WriteFrame(conn, msgError, e.Bytes()); werr != nil {
				return
			}
			continue
		}
		if err := wire.WriteFrame(conn, msgOK, reply); err != nil {
			return
		}
	}
}

func (s *Server) handle(typ uint8, payload []byte) ([]byte, error) {
	d := wire.NewDecoder(payload)
	now := s.clk.Now()
	switch typ {
	case msgCreate:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if name == "" {
			return nil, errors.New("empty channel name")
		}
		s.mu.Lock()
		_, existed := s.channels[name]
		if !existed {
			s.channels[name] = make(map[string]*memberEntry)
		}
		s.mu.Unlock()
		e := wire.NewEncoder(8)
		e.Bool(!existed)
		return e.Bytes(), nil
	case msgJoin, msgHeartbeat:
		name := d.String()
		id := d.String()
		addr := d.String()
		// The role field arrived after the original three-string request;
		// requests from clients that predate it simply end here.
		role := ""
		if d.Remaining() > 0 {
			role = d.String()
		}
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if id == "" || addr == "" {
			return nil, errors.New("join requires member id and address")
		}
		s.mu.Lock()
		ch, ok := s.channels[name]
		if !ok {
			// Auto-create on join: the paper's first-contact-creates rule.
			// Heartbeats create too, so a member's keep-alive doubles as its
			// re-registration after a registry restart lost all state.
			ch = make(map[string]*memberEntry)
			s.channels[name] = ch
		}
		s.expireLocked(ch, now)
		_, known := ch[id]
		if typ == msgHeartbeat {
			ch[id] = &memberEntry{Member: Member{ID: id, Addr: addr, Role: role}, lastSeen: now}
			s.mu.Unlock()
			e := wire.NewEncoder(8)
			e.Bool(!known) // reports whether the heartbeat (re-)registered
			return e.Bytes(), nil
		}
		// Snapshot the members present before this join; the joiner dials
		// exactly these peers.
		peers := make([]Member, 0, len(ch))
		for _, m := range ch {
			if m.ID != id {
				peers = append(peers, m.Member)
			}
		}
		ch[id] = &memberEntry{Member: Member{ID: id, Addr: addr, Role: role}, lastSeen: now}
		s.mu.Unlock()
		sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
		return encodeMembers(peers), nil
	case msgLeave:
		name := d.String()
		id := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		if ch, ok := s.channels[name]; ok {
			delete(ch, id)
		}
		s.mu.Unlock()
		return nil, nil
	case msgLookup:
		name := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		ch, ok := s.channels[name]
		var members []Member
		if ok {
			s.expireLocked(ch, now)
			members = make([]Member, 0, len(ch))
			for _, m := range ch {
				members = append(members, m.Member)
			}
		}
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("channel %q does not exist", name)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		return encodeMembers(members), nil
	case msgList:
		if err := d.Finish(); err != nil {
			return nil, err
		}
		names := s.Channels()
		e := wire.NewEncoder(64)
		e.Uint32(uint32(len(names)))
		for _, n := range names {
			e.String(n)
		}
		return e.Bytes(), nil
	}
	return nil, fmt.Errorf("unknown request type %d", typ)
}

// Member-list wire format: uint32 count, then per member a length-prefixed
// ID, a length-prefixed Addr, and a length-prefixed extension block. The
// block currently holds one length-prefixed Role string; fields added after
// Role land inside the same block, where decodeMembers skips what it does
// not understand. That skip is the version-tolerance contract: a decoder at
// this revision parses announcements from future servers (extra ext bytes),
// while ext contents that overrun their declared length are rejected like
// any other framing error.
func encodeMembers(members []Member) []byte {
	e := wire.NewEncoder(40 * (len(members) + 1))
	e.Uint32(uint32(len(members)))
	for _, m := range members {
		e.String(m.ID)
		e.String(m.Addr)
		e.Uint32(uint32(4 + len(m.Role))) // ext block length
		e.String(m.Role)
	}
	return e.Bytes()
}

// decodeMembers parses a member list, bounding the declared count by what
// the payload could plausibly hold (each member is at least three 4-byte
// length prefixes) so a corrupt frame cannot drive a huge allocation.
func decodeMembers(payload []byte) ([]Member, error) {
	d := wire.NewDecoder(payload)
	n := d.Uint32()
	if int64(n)*12 > int64(d.Remaining()) {
		return nil, fmt.Errorf("registry: implausible member count %d for %d payload bytes", n, d.Remaining())
	}
	out := make([]Member, n)
	for i := range out {
		id := d.String()
		addr := d.String()
		ext := wire.NewDecoder(d.BytesFieldView())
		role := ext.String()
		// Bytes after Role are fields from a newer revision: skipped, not
		// errors. A Role that overruns the block is a framing error.
		if d.Err() == nil && ext.Err() != nil {
			return nil, fmt.Errorf("registry: member extension: %w", ext.Err())
		}
		out[i] = Member{ID: id, Addr: addr, Role: role}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// ClientStats counts a client's recovery work; all fields are cumulative.
type ClientStats struct {
	// Dials counts connections established to the server.
	Dials uint64
	// Redials counts connections re-established after the first.
	Redials uint64
	// Retries counts request attempts beyond each request's first.
	Retries uint64
	// Heartbeats counts heartbeat requests acknowledged by the server.
	Heartbeats uint64
	// Lookups counts Lookup calls, answered or not: what a node's readers
	// of the channel directory cost the registry.
	Lookups uint64
	// Rejoins counts heartbeats that had to re-register the member (the
	// server did not know it — typically after a registry restart).
	Rejoins uint64
}

// Client talks to a registry server. It opens one connection lazily and
// serializes requests on it; registry traffic is rare, so a single
// connection suffices. A node's client joins each of its channels once;
// each channel's supervisor heartbeats and looks its roster up once per
// Channel.ReconnectInterval, the admin server heartbeats at the same pace,
// and it looks the admin roster up at most once per interval plus once
// after a cluster query with a failed part, never once per query. Failed
// requests are retried with exponential backoff, reconnecting as needed.
type Client struct {
	addr string

	dials      atomic.Uint64
	redials    atomic.Uint64
	retries    atomic.Uint64
	heartbeats atomic.Uint64
	lookups    atomic.Uint64
	rejoins    atomic.Uint64

	mu   sync.Mutex
	conn net.Conn
	// fr reads conn's replies; dialLocked sets both together.
	fr        *wire.FrameReader
	transport wire.Transport
	// io is the transport's I/O clock (clock.IO): the retry backoff sleeps
	// on it.
	io  clock.Clock
	rng *rand.Rand
}

// Client retry policy: three attempts with 10ms base backoff keeps a dead
// registry from stalling callers while riding out a quick restart.
const (
	defaultAttempts    = 3
	defaultBackoffBase = 10 * time.Millisecond
	defaultBackoffMax  = 500 * time.Millisecond
	defaultDialTimeout = 2 * time.Second
)

// NewClient returns a client for the registry at addr.
func NewClient(addr string) *Client {
	return &Client{
		addr:      addr,
		transport: wire.TCP{},
		io:        clock.NewReal(),
		// Backoff jitter is deterministic: it only desynchronizes herds.
		rng: rand.New(rand.NewSource(1)),
	}
}

// SetTransport routes the client's connections through t, and its retry
// backoff onto t's I/O clock. Call before the first request.
func (c *Client) SetTransport(t wire.Transport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transport, c.io = t, clock.IO(t)
}

// Stats returns a snapshot of the client's recovery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Dials:      c.dials.Load(),
		Redials:    c.redials.Load(),
		Retries:    c.retries.Load(),
		Heartbeats: c.heartbeats.Load(),
		Lookups:    c.lookups.Load(),
		Rejoins:    c.rejoins.Load(),
	}
}

// RegisterMetrics publishes the client's recovery counters into the node's
// unified registry, under subsystem "registry". The gauges read the live
// atomics, so registration happens once and every exporter (health file,
// stats verb, Prometheus endpoint) sees current values.
func (c *Client) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.Gauge("registry", "", "dials", c.dials.Load)
	r.Gauge("registry", "", "redials", c.redials.Load)
	r.Gauge("registry", "", "retries", c.retries.Load)
	r.Gauge("registry", "", "heartbeats", c.heartbeats.Load)
	r.Gauge("registry", "", "lookups", c.lookups.Load)
	r.Gauge("registry", "", "rejoins", c.rejoins.Load)
}

// Close releases the client's connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) dialLocked() error {
	conn, err := c.transport.DialTimeout("tcp", c.addr, defaultDialTimeout)
	if err != nil {
		return err
	}
	if c.dials.Add(1) > 1 {
		c.redials.Add(1)
	}
	c.conn, c.fr = conn, wire.NewFrameReader(conn)
	return nil
}

// roundTrip sends one request and decodes the reply, retrying with
// exponential backoff (plus deterministic jitter) over fresh connections
// when the transport fails.
func (c *Client) roundTrip(typ uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	backoff := defaultBackoffBase
	for attempt := 0; attempt < defaultAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			d := backoff + time.Duration(c.rng.Int63n(int64(backoff)/2+1))
			c.io.Sleep(d)
			if backoff *= 2; backoff > defaultBackoffMax {
				backoff = defaultBackoffMax
			}
		}
		if c.conn == nil {
			if err := c.dialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := wire.WriteFrame(c.conn, typ, payload); err != nil {
			lastErr = err
			c.conn.Close()
			c.conn = nil
			continue
		}
		rtyp, reply, err := c.fr.Next()
		if err != nil {
			lastErr = err
			c.conn.Close()
			c.conn = nil
			continue
		}
		if rtyp == msgError {
			d := wire.NewDecoder(reply)
			return nil, fmt.Errorf("registry: %s", d.String())
		}
		// The reply is a view of the reader's buffer, which the next
		// request reuses once c.mu is released.
		return bytes.Clone(reply), nil
	}
	return nil, &unreachableError{addr: c.addr, err: lastErr}
}

// unreachableError is a request no attempt got through: it names the
// registry and its address once, then why the last attempt failed. The
// transport's error stays reachable through errors.Is and errors.As.
type unreachableError struct {
	addr string
	err  error
}

func (e *unreachableError) Error() string {
	cause := e.err
	if op, ok := cause.(*net.OpError); ok {
		// A dial's or read's error repeats the address said first.
		bare := *op
		bare.Source, bare.Addr = nil, nil
		cause = &bare
	}
	return "registry: cannot reach server at " + e.addr + ": " + cause.Error()
}

func (e *unreachableError) Unwrap() error { return e.err }

// Create registers a channel name; reports whether this call created it.
func (c *Client) Create(channel string) (created bool, err error) {
	e := wire.NewEncoder(32)
	e.String(channel)
	reply, err := c.roundTrip(msgCreate, e.Bytes())
	if err != nil {
		return false, err
	}
	d := wire.NewDecoder(reply)
	created = d.Bool()
	return created, d.Finish()
}

// Join adds a member to a channel (creating the channel if needed) and
// returns the members that were present before the join — the peers the
// caller must dial.
func (c *Client) Join(channel, memberID, addr string) ([]Member, error) {
	return c.JoinAs(channel, memberID, addr, "")
}

// JoinAs is Join with an advertised overlay role, carried as the optional
// fourth request field (servers predating it ignore nothing — the field is
// simply absent from older clients' requests).
func (c *Client) JoinAs(channel, memberID, addr, role string) ([]Member, error) {
	e := wire.NewEncoder(96)
	e.String(channel)
	e.String(memberID)
	e.String(addr)
	e.String(role)
	reply, err := c.roundTrip(msgJoin, e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeMembers(reply)
}

// Heartbeat refreshes a member's liveness, creating the channel and
// (re-)registering the member if the server does not know it — which is how
// clients transparently re-join after a registry restart. It reports
// whether the heartbeat had to register the member.
func (c *Client) Heartbeat(channel, memberID, addr string) (rejoined bool, err error) {
	return c.HeartbeatAs(channel, memberID, addr, "")
}

// HeartbeatAs is Heartbeat with an advertised overlay role, so a relay's
// keep-alive re-registers it with the role intact after a registry restart.
func (c *Client) HeartbeatAs(channel, memberID, addr, role string) (rejoined bool, err error) {
	e := wire.NewEncoder(96)
	e.String(channel)
	e.String(memberID)
	e.String(addr)
	e.String(role)
	reply, err := c.roundTrip(msgHeartbeat, e.Bytes())
	if err != nil {
		return false, err
	}
	c.heartbeats.Add(1)
	d := wire.NewDecoder(reply)
	rejoined = d.Bool()
	if rejoined {
		c.rejoins.Add(1)
	}
	return rejoined, d.Finish()
}

// Leave removes a member from a channel.
func (c *Client) Leave(channel, memberID string) error {
	e := wire.NewEncoder(64)
	e.String(channel)
	e.String(memberID)
	_, err := c.roundTrip(msgLeave, e.Bytes())
	return err
}

// Lookup returns a channel's current members.
func (c *Client) Lookup(channel string) ([]Member, error) {
	c.lookups.Add(1)
	e := wire.NewEncoder(32)
	e.String(channel)
	reply, err := c.roundTrip(msgLookup, e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeMembers(reply)
}

// List returns all channel names.
func (c *Client) List() ([]string, error) {
	reply, err := c.roundTrip(msgList, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(reply)
	n := d.Uint32()
	if int64(n)*4 > int64(d.Remaining()) {
		return nil, errors.New("registry: implausible channel count")
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out, d.Finish()
}
