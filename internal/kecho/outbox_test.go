package kecho

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/leakcheck"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// countConn is a peer connection that counts Write calls — one per frame:
// frames to a conn that is not a *net.TCPConn leave in a single Write — and,
// while keep is set, keeps a copy of each. Only the methods a writer calls
// are implemented.
type countConn struct {
	net.Conn
	keep   bool
	writes int
	frames [][]byte
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes++
	if c.keep {
		c.frames = append(c.frames, bytes.Clone(b))
	}
	return len(b), nil
}

func (c *countConn) SetWriteDeadline(time.Time) error { return nil }
func (c *countConn) Close() error                     { return nil }

// serviceReady runs the writer pool's loop on the caller's goroutine until
// the ready ring is empty, returning how many service rounds it ran.
func serviceReady(c *Channel, ws *writerScratch) int {
	for n := 0; ; n++ {
		c.ring.mu.Lock()
		empty := c.ring.head == len(c.ring.q)
		c.ring.mu.Unlock()
		if empty {
			return n
		}
		p, _ := c.ring.pop()
		c.servicePeer(p, ws)
	}
}

// frameRecords decodes one written frame into its records.
func frameRecords(t *testing.T, frame []byte) (typ uint8, records [][]byte) {
	t.Helper()
	if len(frame) < wire.HeaderSize || int(binary.BigEndian.Uint32(frame[4:])) != len(frame)-wire.HeaderSize {
		t.Fatalf("write of %d bytes is not one whole frame", len(frame))
	}
	typ, payload := frame[3], frame[wire.HeaderSize:]
	if typ == frameEvent {
		return typ, [][]byte{payload}
	}
	records, err := wire.DecodeBatchInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return typ, records
}

// TestOutboxCountsPerFrame pins the publish side's per-frame costs as
// counts: with the writers held off, 64 Publish calls to 8 peers leave each
// peer one ready-ring entry, and servicing it writes one batch frame of all
// 64 records, in order — one lock acquisition's worth of records per frame,
// one service round per peer. Publish and the writer's round allocate
// nothing, and a publish to a full outbox costs exactly one QueueDrops and
// nothing else: no pending count, no reference, no queue slot.
func TestOutboxCountsPerFrame(t *testing.T) {
	const peers, events = 8, 64
	c := newTestChannel(Options{})
	conns := make([]*countConn, peers)
	for i := range conns {
		conns[i] = &countConn{keep: true}
		id := fmt.Sprintf("s%d", i)
		c.peers[id] = c.newPeer(id, conns[i])
	}
	payload := testBody(0, 64)
	for i := 0; i < events; i++ {
		if n, err := c.Publish(payload, PublishOpts{}); err != nil || n != peers {
			t.Fatalf("Publish #%d = (%d, %v), want (%d, nil)", i, n, err, peers)
		}
	}
	if n := len(c.ring.q) - c.ring.head; n != peers {
		t.Fatalf("%d ready-ring entries after %d publishes to %d peers, want %d", n, events, peers, peers)
	}
	ws := newWriterScratch(c.opts.MaxBatch)
	if n := serviceReady(c, ws); n != peers {
		t.Fatalf("%d service rounds, want one per peer (%d)", n, peers)
	}
	for i, cc := range conns {
		if cc.writes != 1 {
			t.Fatalf("peer s%d: %d frame writes for %d queued records, want 1", i, cc.writes, events)
		}
		typ, records := frameRecords(t, cc.frames[0])
		if typ != frameBatch || len(records) != events {
			t.Fatalf("peer s%d: frame type %d with %d records, want a batch of %d", i, typ, len(records), events)
		}
		for j, rec := range records {
			if want := testRecord("self", uint64(j+1), payload); !bytes.Equal(rec, want) {
				t.Fatalf("peer s%d: record %d is %x, want seq %d: %x", i, j, rec, j+1, want)
			}
		}
	}
	for id, p := range c.peers {
		if p.pending.Load() != 0 || p.queued != 0 || p.scheduled {
			t.Fatalf("peer %s after its frame: pending %d, queued %d, scheduled %v; want 0, 0, false",
				id, p.pending.Load(), p.queued, p.scheduled)
		}
		p.conn.(*countConn).keep = false
	}

	round := func() {
		c.Publish(payload, PublishOpts{})
		serviceReady(c, ws)
	}
	round() // the ring's slice and the frame scratch reach size
	if !poolKeepsItems() {
		t.Log("sync.Pool drops items in this build (the race detector does): allocations not counted")
	} else if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("Publish to %d peers and its writes allocate %.2f times per event, want 0", peers, allocs)
	}

	// A full outbox: the drop costs one QueueDrops and leaves the queue,
	// pending and the record's references as they were.
	c = newTestChannel(Options{OutboxSize: 4})
	cc := &countConn{keep: true}
	p := c.newPeer("s0", cc)
	c.peers["s0"] = p
	for i := 0; i < 4; i++ {
		if n, _ := c.Publish(payload, PublishOpts{}); n != 1 {
			t.Fatalf("Publish #%d to an outbox of 4 = %d, want 1", i, n)
		}
	}
	if n, _ := c.Publish(payload, PublishOpts{}); n != 0 || c.Stats().QueueDrops != 1 {
		t.Fatalf("Publish to a full outbox = %d with QueueDrops %d, want 0 and 1", n, c.Stats().QueueDrops)
	}
	rec := c.encodeRecord(payload, 0, true)
	c.mu.Lock()
	accepted := c.enqueue(p, rec)
	c.mu.Unlock()
	if accepted || c.Stats().QueueDrops != 2 || p.pending.Load() != 4 || p.queued != 4 || rec.refs.Load() != 1 {
		t.Fatalf("enqueue on a full outbox: accepted %v, QueueDrops %d, pending %d, queued %d, refs %d; want false, 2, 4, 4, 1",
			accepted, c.Stats().QueueDrops, p.pending.Load(), p.queued, rec.refs.Load())
	}
	rec.release()
	if n := serviceReady(c, newWriterScratch(c.opts.MaxBatch)); n != 1 || cc.writes != 1 {
		t.Fatalf("%d service rounds and %d writes for a full outbox of 4, want 1 and 1", n, cc.writes)
	}
	_, records := frameRecords(t, cc.frames[0])
	for j, rec := range records {
		if want := testRecord("self", uint64(j+1), payload); !bytes.Equal(rec, want) {
			t.Fatalf("record %d is %x, want seq %d", j, rec, j+1)
		}
	}
	if len(records) != 4 {
		t.Fatalf("%d records written, want the 4 accepted", len(records))
	}
}

// poolKeepsItems reports whether a sync.Pool hands back what was just put
// into it. Under the race detector it drops a random share of Puts, so a
// pooled outRecord is sometimes allocated afresh and an allocation count
// over Publish means nothing.
func poolKeepsItems() bool {
	var pool sync.Pool
	for i := 0; i < 100; i++ {
		x := new(int)
		pool.Put(x)
		if pool.Get() != x {
			return false
		}
	}
	return true
}

// trackOutRecords makes every outRecord the pool creates for the rest of
// the test recorded in the returned list, after emptying the pool, so the
// test can check each record's references at the end. The caller must run
// no channel concurrently with the swap (the pool's New is a plain field).
func trackOutRecords(t *testing.T) func() []*outRecord {
	var mu sync.Mutex
	var made []*outRecord
	prev := outRecordPool.New
	// Two collections empty a sync.Pool: the first moves its contents to
	// the victim cache, the second drops them.
	runtime.GC()
	runtime.GC()
	outRecordPool.New = func() any {
		r := new(outRecord)
		mu.Lock()
		made = append(made, r)
		mu.Unlock()
		return r
	}
	t.Cleanup(func() { outRecordPool.New = prev })
	return func() []*outRecord {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(made)
	}
}

// wireLog wraps a transport so that every frame written whole to one of its
// connections is decoded and the record sequence numbers kept, per
// connection — the publisher's own view of what "written" means.
type wireLog struct {
	wire.Transport
	mu    sync.Mutex
	conns []*loggedConn
}

type loggedConn struct {
	net.Conn
	mu      sync.Mutex
	pending []byte   // bytes of a frame not yet written whole
	seqs    []uint64 // records of whole frames, in write order
	bad     error
}

func (w *wireLog) wrap(conn net.Conn) net.Conn {
	lc := &loggedConn{Conn: conn}
	w.mu.Lock()
	w.conns = append(w.conns, lc)
	w.mu.Unlock()
	return lc
}

func (w *wireLog) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	conn, err := w.Transport.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return w.wrap(conn), nil
}

func (w *wireLog) Listen(network, address string) (net.Listener, error) {
	ln, err := w.Transport.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return &loggedListener{Listener: ln, log: w}, nil
}

type loggedListener struct {
	net.Listener
	log *wireLog
}

func (l *loggedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.log.wrap(conn), nil
}

// Write passes b on and logs the records of every frame its bytes complete.
func (c *loggedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, b[:n]...)
	for len(c.pending) >= wire.HeaderSize && c.bad == nil {
		size := wire.HeaderSize + int(binary.BigEndian.Uint32(c.pending[4:]))
		if len(c.pending) < size {
			break
		}
		var records [][]byte
		switch payload := c.pending[wire.HeaderSize:size]; c.pending[3] {
		case frameEvent:
			records = [][]byte{payload}
		case frameBatch:
			records, c.bad = wire.DecodeBatchInto(nil, payload)
		}
		for _, rec := range records {
			d := wire.NewDecoder(rec)
			_ = d.String()
			c.seqs = append(c.seqs, d.Uint64())
			if c.bad == nil {
				c.bad = d.Err()
			}
		}
		c.pending = c.pending[size:]
	}
	return n, err
}

// TestOutboxProtocolStress hammers the queue/token protocol under a seeded
// schedule of faults: four goroutines publish on one channel to eight
// subscribers over faultnet while connections are severed and stalled,
// subscribers are closed and revived under the same ID, and the publisher
// is closed mid-stream. Afterwards every record the channel accepted is in
// exactly one of "written whole to its connection" or QueueDrops, every
// peer it had ends with nothing pending or queued, every connection carried
// its records at most once and in publish order, every
// record is back in its pool with no reference held, and nothing leaks a
// goroutine. The outbox holds every record the publishers may send, so no
// publish is refused at the door and QueueDrops counts only records that
// were accepted and then abandoned (TestOutboxCountsPerFrame pins the full
// outbox). Run it under -race: a token touched outside the peer lock is a
// reported race even when the schedule does not lose a record.
func TestOutboxProtocolStress(t *testing.T) {
	const publishers, subscribers, steps, perPublisher = 4, 8, 40, 4096
	rng := rand.New(rand.NewSource(29))
	f := faultnet.NewFabric(29)
	reg := newRegistry(t)
	records := trackOutRecords(t)
	before := runtime.NumGoroutine()

	var clients []*registry.Client
	joinAs := func(id string, opts *Options) *Channel {
		client := registry.NewClient(reg.Addr())
		client.SetTransport(f.Host(id))
		clients = append(clients, client)
		ch, err := Join(client, "mon", id, opts)
		if err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
		return ch
	}
	subOpts := func(i int) *Options {
		o := fastHeal()
		o.Transport = f.Host(fmt.Sprintf("s%d", i))
		o.WriteDeadline = 50 * time.Millisecond // a hello to a stalled member waits this long, not 5 s
		return o
	}
	subs := make([]*Channel, subscribers)
	for i := range subs {
		subs[i] = joinAs(fmt.Sprintf("s%d", i), subOpts(i))
	}
	log := &wireLog{Transport: f.Host("pub")}
	pubOpts := fastHeal()
	pubOpts.Transport = log
	pubOpts.OutboxSize = publishers * perPublisher
	pubOpts.WriteDeadline = 50 * time.Millisecond
	pub := joinAs("pub", pubOpts)
	if !pub.WaitForPeers(subscribers, 5*time.Second) {
		t.Fatalf("publisher has peers %v, want all %d subscribers", pub.Peers(), subscribers)
	}

	var wg sync.WaitGroup
	var published atomic.Int64
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte{byte(g), 0, 0, 0, 0, 0, 0, 0}
			for i := 0; i < perPublisher; i++ {
				if _, err := pub.Publish(body, PublishOpts{}); err != nil {
					return // closed mid-stream
				}
				published.Add(1)
				if i%2 == 1 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	stalled := map[int]bool{}
	// seen collects the publisher's peers as the schedule runs — most of
	// them: one that lives and dies between two looks is missed — so each
	// can be audited on its own at the end.
	seen := map[*peer]bool{}
	look := func() {
		pub.mu.Lock()
		for _, p := range pub.peers {
			seen[p] = true
		}
		pub.mu.Unlock()
	}
	for step := 0; step < steps; step++ {
		i := rng.Intn(subscribers)
		host := fmt.Sprintf("s%d", i)
		switch rng.Intn(4) {
		case 0: // kill the publisher's connection; the supervisors revive it
			f.Sever("pub", host)
		case 1: // stall, or unstall, every write to the subscriber
			stalled[i] = !stalled[i]
			f.StallWrites(host, stalled[i])
		case 2: // kill the subscriber, revive it under the same ID
			subs[i].Close()
			subs[i] = joinAs(host, subOpts(i))
		case 3: // let the publisher run
		}
		time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
		look()
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := published.Load(); n == publishers*perPublisher {
		t.Fatalf("all %d publishes were done before Close: nothing was closed mid-stream", n)
	}
	for i := range stalled {
		f.StallWrites(fmt.Sprintf("s%d", i), false)
	}
	for _, s := range subs {
		s.Close()
	}
	for _, client := range clients {
		client.Close()
	}
	leakcheck.Goroutines(t, "after every member closed", 0, before)

	s := pub.Stats()
	written := uint64(0)
	for _, lc := range log.conns {
		if lc.bad != nil {
			t.Fatalf("a connection carried a malformed frame: %v", lc.bad)
		}
		for j := 1; j < len(lc.seqs); j++ {
			if lc.seqs[j] <= lc.seqs[j-1] {
				t.Fatalf("a connection carried seq %d after seq %d: a record twice or out of order", lc.seqs[j], lc.seqs[j-1])
			}
		}
		written += uint64(len(lc.seqs))
	}
	if s.EventsSent != written+s.QueueDrops {
		t.Fatalf("EventsSent %d != written %d + QueueDrops %d: %d records unaccounted",
			s.EventsSent, written, s.QueueDrops, int64(s.EventsSent)-int64(written+s.QueueDrops))
	}
	if s.QueueDrops == 0 || written == 0 {
		t.Fatalf("written %d, QueueDrops %d: the schedule did not exercise both the drain and the drops", written, s.QueueDrops)
	}
	for p := range seen {
		p.qmu.Lock()
		queued := p.queued
		p.qmu.Unlock()
		if n := p.pending.Load(); n != 0 || queued != 0 {
			t.Fatalf("peer %s after Close: pending %d, queued %d; every record it accepted must be written or dropped", p.id, n, queued)
		}
	}
	for _, r := range records() {
		if n := r.refs.Load(); n != 0 {
			t.Fatalf("a record still holds %d references after every member closed", n)
		}
	}
	t.Logf("%d publishes, %d accepted: %d written, %d QueueDrops, %d DeadlineDrops, %d reconnects, %d peers audited, %d records made",
		published.Load(), s.EventsSent, written, s.QueueDrops, s.DeadlineDrops, s.Reconnects, len(seen), len(records()))
}

// BenchmarkPublishFanout times the publish side of a 1 → 8 fan-out of 64 B
// events over loopback TCP: Publish enqueues on eight outboxes and the live
// writer pool drains them into eight sockets, each emptied by a reader that
// discards what it reads. The clock stops once every accepted record is
// written; ns/delivery is that time per record written, and drops/op counts
// publishes a full outbox refused. allocs/op is held at 0 by make allocgate.
func BenchmarkPublishFanout(b *testing.B) {
	const peers = 8
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	rc := registry.NewClient(reg.Addr())
	defer rc.Close()
	var sinks sync.WaitGroup
	for i := 0; i < peers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		if _, err := rc.Join("mon", fmt.Sprintf("s%d", i), ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		sinks.Add(1)
		go func() {
			defer sinks.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_, _ = io.Copy(io.Discard, conn)
		}()
	}
	pc := registry.NewClient(reg.Addr())
	defer pc.Close()
	pub, err := Join(pc, "mon", "pub", &Options{DisableReconnect: true})
	if err != nil {
		b.Fatal(err)
	}
	if !pub.WaitForPeers(peers, 5*time.Second) {
		b.Fatalf("publisher has peers %v, want %d", pub.Peers(), peers)
	}
	payload := make([]byte, 64)
	written := func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		for _, p := range pub.peers {
			if p.pending.Load() > 0 {
				return false
			}
		}
		return true
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Publish(payload, PublishOpts{})
	}
	for !written() {
		time.Sleep(10 * time.Microsecond)
	}
	b.StopTimer()
	s := pub.Stats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsSent), "ns/delivery")
	b.ReportMetric(float64(s.QueueDrops)/float64(b.N), "drops/op")
	pub.Close()
	sinks.Wait()
}
