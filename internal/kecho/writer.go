package kecho

import (
	"errors"

	"dproc/internal/wire"
)

// Reactor writers. A small fixed pool of writer goroutines (Options.Writers)
// drains every peer's outbox: an idle peer costs zero writer goroutines, and
// a busy relay drains many outboxes per wake-up.
//
// Queue ownership: peer.scheduled is the single token, and it lives under
// the same small lock (peer.qmu) as the outbox ring it guards. A producer
// that enqueues sets it if it was clear and, only then, pushes the peer onto
// the ready ring — so a peer is in the ring (or being serviced) at most
// once, which both preserves per-peer write ordering and makes the servicing
// writer the outbox's sole consumer. The writer takes a whole frame's
// records per lock, and after the write one more lock decides between
// requeueing the peer and releasing the token; because producers and the
// releasing writer serialize on that lock, no record can slip in unseen
// between the check and the release. Teardown goes through the same token:
// whoever holds it once the peer is dead — the failing writer, or
// removePeer adopting it — keeps it forever and drains the outbox into
// QueueDrops, so the peer can never re-enter the ring.

// writerScratch is one reactor writer's reusable encode state, persisting
// across peers and wake-ups so steady-state coalescing allocates nothing.
// bw gathers each batch frame from the records' own buffers, copying only
// headers, length prefixes and short records (DESIGN §8).
type writerScratch struct {
	batch []*outRecord
	views [][]byte
	bw    wire.BatchWriter
}

// newWriterScratch sizes a writer's scratch for batches of maxBatch records.
func newWriterScratch(maxBatch int) *writerScratch {
	return &writerScratch{
		batch: make([]*outRecord, 0, maxBatch),
		views: make([][]byte, 0, maxBatch),
	}
}

// writerLoop is one reactor writer: it pops ready peers off the ring and
// services one batch each, round-robin, until the ring closes and empties.
func (c *Channel) writerLoop() {
	defer c.wg.Done()
	ws := newWriterScratch(c.opts.MaxBatch)
	for {
		p, ok := c.ring.pop()
		if !ok {
			return
		}
		c.servicePeer(p, ws)
	}
}

// servicePeer writes one coalesced batch from p's outbox — bounded by both
// maxBatch and the wire frame limit — then either re-queues p at the ring
// tail (more queued: fairness demands other ready peers go first) or
// releases the scheduled token. On a write failure the peer is torn down and
// everything still queued is counted in QueueDrops; the deadline is paid
// here, off the Publish path.
func (c *Channel) servicePeer(p *peer, ws *writerScratch) {
	batch := p.take(ws.batch[:0], c.opts.MaxBatch)
	if len(batch) == 0 {
		return // take released the token
	}
	var err error
	if len(batch) == 1 {
		err = p.send(frameEvent, batch[0].buf, c.opts.WriteDeadline)
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
		// Events taken from the outbox for this write die with it, and so
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
	p.qmu.Lock()
	more := p.queued > 0
	p.scheduled = more
	p.qmu.Unlock()
	if more {
		c.ring.push(p) // keep the token; tail position yields to other peers
	}
}

// take moves the head of p's outbox into batch — up to max records whose
// batch payload fits one wire frame — under one acquisition of the peer
// lock. It peeks at each record before taking it, so a record that would
// overflow the frame stays at the head and opens the next one. An empty
// outbox releases the scheduled token instead; the caller must hold it.
func (p *peer) take(batch []*outRecord, max int) []*outRecord {
	p.qmu.Lock()
	if p.queued == 0 {
		p.scheduled = false
		p.qmu.Unlock()
		return batch
	}
	// Batch payload size: 4-byte count, then each record with a 4-byte
	// length prefix (wire.AppendBatch). Individual events may legally
	// approach wire.MaxFrameSize, so the bound is bytes, not just count — a
	// burst of large events splits across frames rather than producing one
	// oversized frame the wire layer rejects. The first record is taken
	// whatever its size: a lone oversize event is the writer's to drop.
	size := 4
	for p.queued > 0 && len(batch) < max {
		rec := p.outbox[p.head]
		if len(batch) > 0 && size+4+len(rec.buf) > wire.MaxFrameSize {
			break
		}
		size += 4 + len(rec.buf)
		batch = append(batch, p.popLocked())
	}
	p.qmu.Unlock()
	return batch
}

// popLocked removes and returns the head of p's non-empty outbox. The
// caller holds p.qmu.
func (p *peer) popLocked() *outRecord {
	rec := p.outbox[p.head]
	p.outbox[p.head] = nil
	if p.head++; p.head == len(p.outbox) {
		p.head = 0
	}
	p.queued--
	return rec
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
// longer grow and the drain terminates. Each record is popped under the
// peer lock and released outside it.
func (c *Channel) drainDeadPeer(p *peer) {
	for {
		p.qmu.Lock()
		var rec *outRecord
		if p.queued > 0 {
			rec = p.popLocked()
		}
		p.qmu.Unlock()
		if rec == nil {
			return
		}
		c.dropRecord(p, rec)
	}
}
