package kecho

import (
	"errors"

	"dproc/internal/wire"
)

// Reactor writers. A small fixed pool of writer goroutines (Options.Writers)
// drains every peer's outbox: an idle peer costs zero writer goroutines, and
// a busy relay drains many outboxes per wake-up.
//
// Queue ownership: peer.scheduled is the single token. A producer that
// enqueues CASes it false→true and, on success, pushes the peer onto the
// ready ring — so a peer is in the ring (or being serviced) at most once,
// which both preserves per-peer write ordering and makes the servicing
// writer the outbox's sole consumer. The writer releases the token only
// after verifying the outbox is empty (with a re-check to close the race
// against a producer that observed the token still held). A dead peer's
// token is never released: whoever holds it — the failing writer, or
// removePeer via its own CAS — drains the outbox into QueueDrops, and the
// peer can never re-enter the ring.

// writerScratch is one reactor writer's reusable encode state, persisting
// across peers and wake-ups so steady-state coalescing allocates nothing.
// bw gathers each batch frame from the records' own buffers, copying only
// headers, length prefixes and short records (DESIGN §8).
type writerScratch struct {
	batch []*outRecord
	views [][]byte
	bw    wire.BatchWriter
}

// schedule hands p to the writer pool if it is not already scheduled.
// Callers must have just enqueued on p.outbox (or observed it non-empty).
func (c *Channel) schedule(p *peer) {
	if p.scheduled.CompareAndSwap(false, true) {
		c.ring.push(p)
	}
}

// writerLoop is one reactor writer: it pops ready peers off the ring and
// services one batch each, round-robin, until the ring closes and empties.
func (c *Channel) writerLoop() {
	defer c.wg.Done()
	ws := writerScratch{
		batch: make([]*outRecord, 0, c.opts.MaxBatch),
		views: make([][]byte, 0, c.opts.MaxBatch),
	}
	for {
		p, ok := c.ring.pop()
		if !ok {
			return
		}
		c.servicePeer(p, &ws)
	}
}

// servicePeer writes one coalesced batch from p's outbox — bounded by both
// maxBatch and the wire frame limit — then either re-queues p at the ring
// tail (more queued: fairness demands other ready peers go first) or
// releases the scheduled token. On a write failure the peer is torn down and
// everything still queued is counted in QueueDrops; the deadline is paid
// here, off the Publish path.
func (c *Channel) servicePeer(p *peer, ws *writerScratch) {
	// carry holds a record pulled in a previous round that would have pushed
	// that batch past the frame limit; it opens this batch instead,
	// preserving order. It lives on the peer because consecutive rounds may
	// run on different writers — the scheduled token serializes them.
	var first *outRecord
	if p.carry != nil {
		first, p.carry = p.carry, nil
	} else {
		select {
		case first = <-p.outbox:
		default:
			// Nothing queued (a re-check push raced with the drain): release
			// the token, then re-check for a producer that saw it held.
			p.scheduled.Store(false)
			if len(p.outbox) > 0 {
				c.schedule(p)
			}
			return
		}
	}
	batch := append(ws.batch[:0], first)
	// Batch payload size: 4-byte count, then each record with a 4-byte
	// length prefix (wire.AppendBatch). Individual events may legally
	// approach wire.MaxFrameSize, so the coalesce loop bounds bytes, not
	// just count — a burst of large events splits across frames rather than
	// producing one oversized frame the wire layer rejects.
	bytes := 4 + 4 + len(first.buf)
coalesce:
	for len(batch) < c.opts.MaxBatch {
		select {
		case rec := <-p.outbox:
			if bytes+4+len(rec.buf) > wire.MaxFrameSize {
				p.carry = rec
				break coalesce
			}
			batch = append(batch, rec)
			bytes += 4 + len(rec.buf)
		default:
			break coalesce
		}
	}
	var err error
	if len(batch) == 1 {
		err = p.send(frameEvent, first.buf, c.opts.WriteDeadline)
	} else {
		ws.views = ws.views[:0]
		for _, rec := range batch {
			ws.views = append(ws.views, rec.buf)
		}
		if err = p.sendBatch(&ws.bw, ws.views, c.opts.WriteDeadline); err == nil {
			c.batchesSent.Add(1)
		}
		clear(ws.views) // the records are released below; don't pin their buffers
	}
	// done counts events resolved this round — written or deliberately
	// dropped, their references released — so the error path can account for
	// the remainder.
	done := 0
	if err == nil {
		c.observeWritten(batch)
		p.pending.Add(-int64(len(batch)))
		for _, rec := range batch {
			rec.release()
		}
		done = len(batch)
	}
	if err != nil && errors.Is(err, wire.ErrFrameSize) {
		// ErrFrameSize means WriteFrame wrote nothing — the connection is
		// intact, only this frame was refused. Degrade to individual frames;
		// a single event too large for the wire format can never be
		// delivered and is dropped rather than killing the peer.
		err = nil
		for _, rec := range batch {
			if len(rec.buf) > wire.MaxFrameSize {
				c.dropRecord(p, rec)
				done++
				continue
			}
			if err = p.send(frameEvent, rec.buf, c.opts.WriteDeadline); err != nil {
				break
			}
			if c.obs != nil && !rec.enq.IsZero() {
				c.obs.ObserveQueue(c.clk.Now().Sub(rec.enq), rec.traceID)
				c.obs.ObserveBatch(1)
			}
			p.pending.Add(-1)
			rec.release()
			done++
		}
	}
	ws.batch = batch[:0]
	if err != nil {
		if isTimeout(err) {
			c.deadlineDrops.Add(1)
		}
		// Events pulled from the outbox for this write die with it, and so
		// does everything still queued: removePeer unlinks the peer (so no
		// producer can enqueue again), then this writer — which still holds
		// the scheduled token, permanently — drains the remnants into
		// QueueDrops.
		for _, rec := range batch[done:] {
			c.dropRecord(p, rec)
		}
		c.removePeer(p)
		c.drainDeadPeer(p)
		return
	}
	if p.carry != nil || len(p.outbox) > 0 {
		c.ring.push(p) // keep the token; tail position yields to other peers
		return
	}
	p.scheduled.Store(false)
	if len(p.outbox) > 0 {
		// A producer enqueued between our drain and the release and lost its
		// CAS; reclaim the token on its behalf.
		c.schedule(p)
	}
}

// dropRecord discards one event that was accepted for peer p but will never
// be written, keeping the drop counter, the peer's pending count, and the
// record's refcount in step.
func (c *Channel) dropRecord(p *peer, rec *outRecord) {
	c.queueDrops.Add(1)
	p.pending.Add(-1)
	rec.release()
}

// observeWritten records outbox residency for every record in a just-written
// frame plus the frame's batch size. It must run before the records are
// released: release can hand a record back to the pool, where a concurrent
// Publish would reset enq and traceID under us.
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

// drainDeadPeer discards everything still queued for a torn-down peer,
// keeping QueueDrops, pending, and the record refcounts in step. The caller
// must hold p's scheduled token (and never release it): producers observe
// the peer unlinked before this runs — removePeer deletes it from the map
// under c.mu, and every enqueue happens under c.mu — so the outbox can no
// longer grow and the drain terminates.
func (c *Channel) drainDeadPeer(p *peer) {
	if p.carry != nil {
		c.dropRecord(p, p.carry)
		p.carry = nil
	}
	for {
		select {
		case rec := <-p.outbox:
			c.dropRecord(p, rec)
		default:
			return
		}
	}
}
