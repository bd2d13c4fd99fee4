package kecho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dproc/internal/wire"
)

// outRecord is one encoded event record (publisher ID, seq, payload). It is
// encoded once per Publish and shared by every peer outbox — the fan-out
// enqueues the same record N times instead of copying it N times. refs
// counts the holders (each enqueued outbox plus the publishing goroutine);
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

// ErrOutboxFull reports an enqueue that found the peer's bounded outbound
// queue full — transient backpressure from a slow-but-alive subscriber,
// distinct from a missing peer or a closed channel. Callers that fan out
// per-peer (e.g. a streaming server) should treat it as a skipped event,
// not a dead peer.
var ErrOutboxFull = errors.New("kecho: peer outbox full")

// Subscribe registers a handler for incoming events. Handlers run on the
// Poll caller's goroutine (Polled mode) or, one at a time, on the receiving
// connection's reader goroutine (EventDriven mode). An EventDriven handler
// may Publish on its own channel, but blocking in it stops that connection's
// reads, and Close waits for it to return.
func (c *Channel) Subscribe(h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Copy-on-write: a published slice is never written again, so dispatch
	// can iterate the one it loads without a lock, a copy or an allocation.
	var cur []Handler
	if p := c.handlers.Load(); p != nil {
		cur = *p
	}
	next := make([]Handler, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = h
	c.handlers.Store(&next)
}

// encodeRecord encodes payload as one event record (publisher ID, sequence
// number, body) into a pooled record holding a single reference — the
// caller's. The wire layout matches Encoder.String + Encoder.Uint64 +
// Encoder.BytesField, decoded by decodeRecord. A broadcast record on a
// forwarding topology carries the hop trailer (hops = 0: fresh from its
// publisher) — it is what marks a record as relayable, and relays rewrite
// the count in place. Targeted SubmitTo records stay trailer-free so
// receivers deliver them point-to-point and never re-publish them. A sampled
// event (tid != 0) additionally carries the trace trailer, after the hop
// trailer, so subscribers can measure cross-node propagation against the
// send stamp.
func (c *Channel) encodeRecord(payload []byte, tid uint64, broadcast bool) *outRecord {
	rec := newOutRecord()
	rec.buf = wire.AppendString(rec.buf, c.id)
	rec.buf = binary.BigEndian.AppendUint64(rec.buf, c.seq.Add(1))
	rec.buf = wire.AppendBytesField(rec.buf, payload)
	if broadcast && c.maxHops > 0 {
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

// enqueue offers rec to p's outbox without blocking and reports whether it
// was accepted; a full outbox costs the event for this peer, counted in
// QueueDrops, and touches neither pending nor the refcount. It is the only
// producer of any outbox. The caller holds c.mu — removePeer's
// adopt-and-drain relies on every producer serializing against the map
// delete, so a record can never land on an outbox after the dead peer was
// drained — and its own reference on rec.
//
// The event is counted pending, and the outbox's reference taken, under the
// peer lock before the record becomes visible to a writer, which may take
// it, write it and release it as soon as the lock is dropped. The peer goes
// onto the ready ring only if this call set the scheduled token, and only
// after the lock is released (writer.go).
func (c *Channel) enqueue(p *peer, rec *outRecord) bool {
	p.qmu.Lock()
	if p.queued == len(p.outbox) {
		p.qmu.Unlock()
		c.queueDrops.Add(1)
		return false
	}
	p.pending.Add(1)
	rec.refs.Add(1)
	tail := p.head + p.queued
	if tail >= len(p.outbox) {
		tail -= len(p.outbox)
	}
	p.outbox[tail] = rec
	p.queued++
	wake := !p.scheduled
	p.scheduled = true
	p.qmu.Unlock()
	if wake {
		c.ring.push(p)
	}
	return true
}

// fanOut enqueues rec on every peer except skip and the member named origin
// (nil and "" skip nobody: a member ID is never empty) and returns how many
// accepted it. The caller holds c.mu; the loop never blocks, allocates
// nothing and spares a per-publish copy of the peer set.
func (c *Channel) fanOut(rec *outRecord, skip *peer, origin string) int {
	sent := 0
	for id, p := range c.peers {
		if p == skip || id == origin {
			continue
		}
		if c.enqueue(p, rec) {
			sent++
		}
	}
	return sent
}

// PublishOpts carries the per-publish options of Publish. The zero value is
// the common case: an untraced event, sampled at publish time when an
// observer is attached.
type PublishOpts struct {
	// TraceID attributes the event to an existing trace span chain (0 with
	// Traced unset means "decide here by sampling"). The ID rides a trailing
	// wire-frame extension so every downstream stage — queue, propagation,
	// decode, dispatch — attributes its span to the same trace.
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
// On a relay tree the connected peers are this member's tree neighbours and
// the record carries a hop trailer; interior members re-publish it down
// their subtrees, so every live member still sees the event once.
func (c *Channel) Publish(payload []byte, opts PublishOpts) (int, error) {
	tid := opts.TraceID
	if !opts.Traced && tid == 0 {
		tid = c.obs.SampleTrace()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errClosed
	}
	// Encode once; every outbox shares the same record. Encoding under c.mu
	// makes sequence order and enqueue order the same on every outbox, which
	// the relay dedup gate's high-water mark depends on.
	rec := c.encodeRecord(payload, tid, true)
	sent := c.fanOut(rec, nil, "")
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * len(payload)))
	rec.release()
	return sent, nil
}

// SubmitTo publishes payload to a single peer, used for targeted control
// messages (e.g. deploying a filter on one node). Like Publish it only
// enqueues; an overflowing outbox drops the event and returns an error
// wrapping ErrOutboxFull, so callers can tell transient backpressure (skip
// and retry later) from a peer that is not connected at all.
func (c *Channel) SubmitTo(peerID string, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	p, ok := c.peers[peerID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kecho: no peer %q on channel %q", peerID, c.name)
	}
	rec := c.encodeRecord(payload, 0, false)
	ok = c.enqueue(p, rec)
	c.mu.Unlock()
	rec.release()
	if !ok {
		return fmt.Errorf("%w: peer %q on channel %q", ErrOutboxFull, peerID, c.name)
	}
	c.eventsSent.Add(1)
	c.bytesSent.Add(uint64(len(payload)))
	return nil
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

// receiveFrame delivers one received frame's records, in order: through the
// receive gate, then to the handlers in place (EventDriven) or to the inbox
// as one queued frame (Polled). The frame is stamped once — every record's
// Event.Recv is the time the frame was read. records alias the connection's
// receive buffer, size is the frame's length. A record that does not decode
// ends the frame with its error; the records ahead of it have been delivered.
func (c *Channel) receiveFrame(p *peer, records [][]byte, size int) error {
	if len(records) == 0 {
		return nil
	}
	recv := c.clk.Now()
	if c.opts.Dispatch == EventDriven {
		// Run the handlers here, on the receive buffer, one reader at a time.
		// A slow handler is never dropped on: it stops this goroutine's
		// socket reads, which fills the kernel buffers, stalls the
		// publisher's writer, and backs its outbox up into QueueDrops —
		// backpressure instead of local loss.
		var ev Event
		for _, rec := range records {
			ok, err := c.decodeRecord(p, rec, recv, &ev)
			if err != nil {
				return err
			}
			if ok {
				c.countRecv(1, len(ev.Payload))
				c.dispatchMu.Lock()
				c.dispatch(&ev)
				c.dispatchMu.Unlock()
			}
		}
		return nil
	}
	// Polled: the events outlive the receive buffer, so each admitted body
	// is copied into the frame's arena, and the frame is queued whole.
	a := c.getArena()
	hint := min(size, maxPooledRecord)
	n, bytes := 0, 0
	var err error
	for _, rec := range records {
		a.evs = append(a.evs, Event{})
		ev := &a.evs[len(a.evs)-1]
		var ok bool
		if ok, err = c.decodeRecord(p, rec, recv, ev); ok {
			n++
			bytes += len(ev.Payload)
			if len(a.evs) <= c.opts.InboxSize {
				ev.Payload = a.copyBody(ev.Payload, hint)
				continue
			}
			// More records than the inbox could ever hold: drop the tail
			// here rather than copy it only for queueFrame to drop it.
			c.dropped.Add(1)
		}
		*ev = Event{}
		a.evs = a.evs[:len(a.evs)-1]
		if err != nil {
			break
		}
	}
	// Counted before the frame is queued, so that no Poll can dispatch an
	// event the counters do not include yet.
	c.countRecv(n, bytes)
	c.queueFrame(a)
	return err
}

// countRecv adds n admitted records carrying bytes of payload to the
// receive counters.
func (c *Channel) countRecv(n, bytes int) {
	c.eventsRecv.Add(uint64(n))
	c.bytesRecv.Add(uint64(bytes))
}

// decodeRecord decodes one event record into ev and runs it through the
// receive gate: relay suppression and forwarding, the origin check of a
// record that was not relayed, and the trace observations. ok is false for
// a record the gate suppressed or refused, err non-nil for one that does
// not decode; ev is filled only when ok, and the caller counts it received.
// ev.Payload is a view of record.
func (c *Channel) decodeRecord(p *peer, record []byte, recv time.Time, ev *Event) (ok bool, err error) {
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
		return false, err
	}
	fromID := ""
	if hopped {
		// Overlay traffic — the record says so, whatever this member's own
		// topology: suppress records that looped back to their origin and
		// duplicates arriving over redundant transient paths, then
		// re-publish what remains while it is inside this member's
		// forwarding radius (never, on a full-mesh member). Suppression
		// must precede delivery and the receive counters — the overlay's
		// contract is each record delivered at most once per member — and
		// the forward precedes dispatch so that a slow handler here delays
		// only the records behind this one, not this one's subtree.
		if string(from) == c.id {
			return false, nil
		}
		origin, admit := c.relayAdmit(from, seq)
		if !admit {
			c.relayDups.Add(1)
			return false, nil
		}
		fromID = origin
		if int(hops)+1 <= c.maxHops {
			c.relayForward(p, origin, record, hops, traced, len(body), tid)
		}
	}
	if tid != 0 {
		// Cross-node propagation delay: publisher send stamp → local
		// receive, both on internal/clock time. Skew clamps to zero in the
		// observer. The decode span closes here, on the record's own stamp
		// — decode work is behind us.
		delay := time.Duration(recv.UnixNano() - sendNs)
		c.obs.ObservePropagation(delay, tid)
		if hopped {
			c.obs.ObservePropagationDepth(int(hops), delay)
		}
		c.obs.ObserveDecode(c.clk.Now().Sub(recv), tid)
	}
	if !hopped {
		// Not relayed: only the member at the other end of this connection
		// may have published it (DESIGN §6). A relayed record speaks for
		// its origin, even an empty one.
		if string(from) != p.id { // compiles to an alloc-free comparison
			c.wrongOrigin.Add(1)
			return false, nil
		}
		fromID = p.id
	}
	*ev = Event{
		Channel: c.name,
		From:    fromID,
		Seq:     seq,
		Payload: body,
		Recv:    recv,
		TraceID: tid,
	}
	return true, nil
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
// Publish, the re-fan-out is encode-free and enqueue-only: one buffer copy,
// shared by reference across the outboxes.
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
	if !c.closed {
		sent = c.fanOut(rec, src, origin)
	}
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.relayed.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * bodyLen))
	rec.release()
}

// arena is one received frame on its way through the polled inbox: the
// frame's events and the memory their payloads were copied into. A reader
// fills it off the lock, queueFrame hands it to the inbox whole, and Poll
// dispatches it and returns it to the channel's freelist — so a payload
// stays valid until the Poll that dispatched it returns, and is overwritten
// when its arena carries a later frame.
type arena struct {
	evs []Event
	// chunks hold the copied bodies in arrival order; chunks[used-1] is
	// being filled. A chunk is at most maxPooledRecord bytes unless a single
	// body is larger, and such a chunk is not kept when the arena is reset.
	chunks [][]byte
	used   int
}

// maxPooledEvents caps the event capacity a recycled arena keeps, at the
// same byte bound as its chunks.
const maxPooledEvents = maxPooledRecord / int(unsafe.Sizeof(Event{}))

// copyBody copies body into the arena and returns the copy, capped at its
// length so a handler's append cannot run into the next body. hint sizes a
// new chunk — the frame's length, at most maxPooledRecord — so a frame's
// bodies normally share one.
func (a *arena) copyBody(body []byte, hint int) []byte {
	if a.used == 0 || cap(a.chunks[a.used-1])-len(a.chunks[a.used-1]) < len(body) {
		if a.used == len(a.chunks) {
			a.chunks = append(a.chunks, nil)
		}
		if need := max(len(body), hint); cap(a.chunks[a.used]) < need {
			if need <= maxPooledRecord {
				need = 1 << bits.Len(uint(need-1)) // steady frame sizes stop regrowing
			}
			a.chunks[a.used] = make([]byte, 0, need)
		}
		a.used++
	}
	chunk := a.chunks[a.used-1]
	off := len(chunk)
	chunk = append(chunk, body...)
	a.chunks[a.used-1] = chunk
	return chunk[off:len(chunk):len(chunk)]
}

// reset empties the arena for its next frame, dropping what the events
// referenced and any chunk or event array above the pooling bounds.
func (a *arena) reset() {
	clear(a.evs)
	a.evs = a.evs[:0]
	if cap(a.evs) > maxPooledEvents {
		a.evs = nil
	}
	for i, chunk := range a.chunks[:a.used] {
		if cap(chunk) > maxPooledRecord {
			chunk = nil
		}
		a.chunks[i] = chunk[:0]
	}
	a.used = 0
}

// getArena pops the most recently freed arena, or makes one.
func (c *Channel) getArena() *arena {
	c.inboxMu.Lock()
	n := len(c.free)
	if n == 0 {
		c.inboxMu.Unlock()
		return new(arena)
	}
	a := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	c.inboxMu.Unlock()
	return a
}

// freeArenaLocked pushes a reset arena onto the freelist, which keeps at
// most InboxSize of them — as many as one Poll can hand back, since every
// queued arena holds at least one event. The caller holds inboxMu.
func (c *Channel) freeArenaLocked(a *arena) {
	if len(c.free) < c.opts.InboxSize {
		c.free = append(c.free, a)
	}
}

// queueFrame appends a received frame to the inbox under one lock. What
// does not fit under InboxSize is dropped from the frame's tail, counted in
// Stats.Dropped, so the events kept are an in-order prefix.
func (c *Channel) queueFrame(a *arena) {
	c.inboxMu.Lock()
	if room := c.opts.InboxSize - int(c.queued.Load()); len(a.evs) > room {
		c.dropped.Add(uint64(len(a.evs) - room))
		clear(a.evs[room:])
		a.evs = a.evs[:room]
	}
	if len(a.evs) == 0 {
		a.reset()
		c.freeArenaLocked(a)
	} else {
		c.frames = append(c.frames, a)
		c.queued.Add(int64(len(a.evs)))
	}
	c.inboxMu.Unlock()
}

func (c *Channel) dispatch(ev *Event) {
	// Subscribe publishes a fresh slice on every registration, so the one
	// loaded here is immutable — no lock and no per-event copy.
	hp := c.handlers.Load()
	if hp == nil {
		return
	}
	if c.obs != nil && ev.TraceID != 0 {
		start := c.clk.Now()
		for _, h := range *hp {
			h(*ev)
		}
		c.obs.ObserveDispatch(c.clk.Now().Sub(start), ev.TraceID)
		return
	}
	for _, h := range *hp {
		h(*ev)
	}
}

// Poll dispatches the events queued at the moment of the call to the
// subscribed handlers, returning the number processed. It takes the whole
// queue in one swap, so a producer that keeps pace with the consumer cannot
// live-lock the caller's poll tick: frames arriving during the drain wait
// for the next Poll. A handler may call Poll itself; that call takes only
// what arrived since. It mirrors d-mon's per-second socket poll; meaningful
// only in Polled mode. In EventDriven mode there is no inbox and Poll
// reports zero — callers may keep a poll tick running unchanged when they
// flip modes.
func (c *Channel) Poll() int {
	if c.queued.Load() == 0 {
		return 0 // the idle poll tick: one atomic load, inlined into the caller
	}
	return c.drain()
}

// drain is Poll with something queued.
func (c *Channel) drain() int {
	c.inboxMu.Lock()
	frames := c.frames
	c.frames, c.spare = c.spare, nil
	c.queued.Store(0)
	c.inboxMu.Unlock()
	n := 0
	for _, a := range frames {
		for i := range a.evs {
			c.dispatch(&a.evs[i])
		}
		n += len(a.evs)
		// Every handler for the frame has returned: its payloads' loan ends.
		a.reset()
	}
	c.inboxMu.Lock()
	for i, a := range frames {
		c.freeArenaLocked(a)
		frames[i] = nil
	}
	if c.spare == nil {
		c.spare = frames[:0]
	}
	c.inboxMu.Unlock()
	return n
}

// Pending reports how many events are queued awaiting Poll; always zero in
// EventDriven mode.
func (c *Channel) Pending() int { return int(c.queued.Load()) }
