package kecho

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// conn: one connection per peer. Its read side is one goroutine, readLoop,
// for the life of the connection. Its write side is the peer's outbox — a
// fixed ring of encoded records under a small per-peer lock that also holds
// the ring's scheduled token — drained by the shared writer pool
// (writer.go), a frame's worth of records per lock, and a write lock that
// keeps frames whole on the wire.

// Frame types on peer connections.
const (
	frameHello uint8 = iota + 1
	frameEvent
	// frameBatch carries several coalesced event records in one frame
	// (wire.BatchWriter); receivers unpack it transparently, so batching is
	// invisible above the transport.
	frameBatch
)

type peer struct {
	id   string
	conn net.Conn
	// dialed is true when this member opened conn, false when it accepted it;
	// addPeerLocked settles a cross-dial on it.
	dialed bool
	// io is the channel's I/O clock, which write deadlines are set on.
	io  clock.Clock
	wmu sync.Mutex
	// qmu guards the outbound queue and its scheduled token, and nothing
	// else: no syscall, allocation or other lock is taken while it is held.
	// Lock order is c.mu → qmu. See writer.go for the protocol.
	qmu sync.Mutex
	// outbox is a fixed ring of encoded event records for the writer pool:
	// queued records from head on, wrapping. enqueue is its only producer
	// and never blocks; whoever holds scheduled is its only consumer.
	// Records are refcounted: the writer releases its reference once the
	// record is written or deliberately dropped.
	outbox []*outRecord
	head   int
	queued int
	// scheduled is the queue-ownership token: true while the peer is on the
	// ready ring or being serviced by a writer (at most one of either, so
	// per-peer write order is total). A dead peer's token, once teardown has
	// it, is held forever.
	scheduled bool
	// dead is closed exactly once when the peer is torn down.
	dead     chan struct{}
	downOnce sync.Once
	// pending counts events accepted for this peer (queued on outbox or
	// held by a writer) whose write has neither completed nor been
	// abandoned; Close's graceful drain waits for it to reach zero.
	pending atomic.Int64
}

// newPeer wraps conn as a peer with an empty outbound queue.
func (c *Channel) newPeer(id string, conn net.Conn) *peer {
	return &peer{
		id:     id,
		conn:   conn,
		io:     c.io,
		outbox: make([]*outRecord, c.opts.OutboxSize),
		dead:   make(chan struct{}),
	}
}

// close tears the peer down: closes the connection and marks it dead. Safe
// to call from any goroutine, any number of times.
func (p *peer) close() {
	p.downOnce.Do(func() {
		close(p.dead)
		p.conn.Close()
	})
}

// send writes one frame to the peer, bounded by deadline (<= 0 disables).
func (p *peer) send(typ uint8, payload []byte, deadline time.Duration) error {
	p.beginWrite(deadline)
	defer p.endWrite(deadline)
	return wire.WriteFrame(p.conn, typ, payload)
}

// sendBatch writes records to the peer as one batch frame through the
// writer's bw, bounded by deadline like send.
func (p *peer) sendBatch(bw *wire.BatchWriter, records [][]byte, deadline time.Duration) error {
	p.beginWrite(deadline)
	defer p.endWrite(deadline)
	return bw.WriteFrame(p.conn, frameBatch, records)
}

// beginWrite takes the peer's write lock and arms the write deadline
// (<= 0 disables); endWrite, with the same deadline, disarms and unlocks.
func (p *peer) beginWrite(deadline time.Duration) {
	p.wmu.Lock()
	if deadline > 0 {
		_ = p.conn.SetWriteDeadline(p.io.Now().Add(deadline))
	}
}

func (p *peer) endWrite(deadline time.Duration) {
	if deadline > 0 {
		_ = p.conn.SetWriteDeadline(time.Time{})
	}
	p.wmu.Unlock()
}

// isTimeout reports whether err is a deadline expiry rather than a dead
// connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dialPeer is the one dial path: connect to m, send the hello, and offer the
// connection to the peer set. kept reports whether the peer set took it — a
// dial that succeeded but lost the cross-dial tie-break (or found the
// channel closed) is closed again and is neither kept nor an error.
func (c *Channel) dialPeer(m registry.Member) (kept bool, err error) {
	conn, err := c.opts.Transport.DialTimeout("tcp", m.Addr, dialTimeout)
	if err != nil {
		return false, err
	}
	p := c.newPeer(m.ID, conn)
	p.dialed = true
	hello := wire.NewEncoder(64)
	hello.String(c.name)
	hello.String(c.id)
	if err := p.send(frameHello, hello.Bytes(), c.opts.WriteDeadline); err != nil {
		conn.Close()
		return false, err
	}
	c.mu.Lock()
	kept = c.addPeerLocked(p)
	if kept {
		c.wg.Add(1) // the reader's; under c.mu so Close's wait cannot miss it
	}
	c.mu.Unlock()
	if kept {
		go c.readLoop(conn, p)
	}
	return kept, nil
}

// acceptLoop hands every accepted connection to a reader at once: the
// reader owns the conn from its first byte, so a dialer that never sends its
// hello holds up one goroutine for dialTimeout, not the accepts behind it.
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
// frames — one read(2) takes in every small frame already waiting, and each
// is handed out from the buffer before the next read — and a batch scratch
// reused across batch frames, so the
// steady-state receive path — read frame, unpack batch, decode records,
// dispatch — performs no allocation. p is nil for an accepted conn, whose
// first frame must be the dialer's hello, within dialTimeout. A frame or
// record that fails to decode tears the peer down (the supervisor re-dials).
func (c *Channel) readLoop(conn net.Conn, p *peer) {
	defer c.wg.Done()
	fr := wire.NewFrameReader(conn)
	if p == nil {
		// Best effort: a conn that cannot take a deadline still ends at Close.
		_ = conn.SetReadDeadline(c.io.Now().Add(dialTimeout))
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
// payload; they are consumed (dispatched, or copied into the frame's inbox
// arena) before the caller reuses its receive buffer. batch is the caller's
// decode scratch, returned (possibly grown) for reuse. An error means the
// batch or a record in it was malformed; records ahead of the bad one have
// been delivered.
func (c *Channel) handleFrame(p *peer, typ uint8, payload []byte, batch [][]byte) ([][]byte, error) {
	switch typ {
	case frameEvent:
		return batch, c.receiveFrame(p, [][]byte{payload}, len(payload))
	case frameBatch:
		dec, err := wire.DecodeBatchInto(batch[:0], payload)
		if err != nil {
			return batch, err
		}
		return dec, c.receiveFrame(p, dec, len(payload))
	}
	return batch, nil
}
