package kecho

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// fastHeal returns options that run the reconnect supervisor quickly enough
// for tests.
func fastHeal() *Options {
	return &Options{ReconnectInterval: 10 * time.Millisecond}
}

// joinFault joins a channel whose mesh and registry traffic both run through
// the fabric host named after the member.
func joinFault(t *testing.T, f *faultnet.Fabric, regAddr, channel, id string, opts *Options) (*Channel, *registry.Client) {
	t.Helper()
	client := registry.NewClient(regAddr)
	client.SetTransport(f.Host(id))
	t.Cleanup(func() { client.Close() })
	if opts == nil {
		opts = &Options{}
	}
	opts.Transport = f.Host(id)
	c, err := Join(client, channel, id, opts)
	if err != nil {
		t.Fatalf("Join(%s, %s): %v", channel, id, err)
	}
	t.Cleanup(func() { c.Close() })
	return c, client
}

// TestMeshSelfHealsAfterConnKill is the headline acceptance scenario: a live
// peer connection is killed through the fault fabric and, with no manual
// RefreshPeers call, the supervisor re-forms the mesh and a subsequent
// Publish reaches the recovered peer.
func TestMeshSelfHealsAfterConnKill(t *testing.T) {
	f := faultnet.NewFabric(7)
	reg := newRegistry(t)
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", fastHeal())
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", fastHeal())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	if _, err := a.Publish([]byte("before"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)

	if n := f.Sever("alan", "maui"); n < 1 {
		t.Fatalf("Sever killed %d conns, want >= 1", n)
	}

	// No RefreshPeers here: the supervisor alone must notice the dead
	// connection and heal the mesh, then deliver a fresh event.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not self-heal: a peers=%v reconnects=%d",
				a.Peers(), a.Stats().Reconnects+b.Stats().Reconnects)
		}
		if _, err := a.Publish([]byte("after"), PublishOpts{}); err == nil {
			b.Poll()
			if got.Load() >= 2 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r := a.Stats().Reconnects + b.Stats().Reconnects; r < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", r)
	}
}

// TestSubmitWriteDeadlineUnblocksHealthyPeers proves the head-of-line fix:
// Publish only enqueues, so a stalled peer costs the publisher nothing; the
// stalled peer's writer pays the deadline off the Publish path and drops the
// peer, while the healthy peer still receives the event. A burst of 5 KiB
// events behind it reaches the healthy peer in full, in batch frames copied
// whole (faultnet is not a *net.TCPConn), and lands in QueueDrops, every
// record of it, for the stalled one.
func TestSubmitWriteDeadlineUnblocksHealthyPeers(t *testing.T) {
	const burst = 40
	f := faultnet.NewFabric(3)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 200 * time.Millisecond, DisableReconnect: true}
	}
	// The stalled and healthy receivers join first so the publisher dials
	// them (fault attribution rides on the dial-side wrapper).
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	c, _ := joinFault(t, f, reg.Addr(), "mon", "hilo", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(2, 2*time.Second) || !b.WaitForPeers(2, 2*time.Second) || !c.WaitForPeers(2, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var gotC atomic.Int64
	c.Subscribe(func(Event) { gotC.Add(1) })

	f.StallWrites("maui", true)
	start := time.Now()
	n, err := a.Publish([]byte("head-of-line"), PublishOpts{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if n != 2 {
		t.Fatalf("Publish enqueued to %d peers, want 2", n)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("Publish blocked %v on the stalled peer", elapsed)
	}
	large := make([]byte, 5<<10)
	for i := 0; i < burst; i++ {
		if n, err := a.Publish(large, PublishOpts{}); err != nil || n != 2 {
			t.Fatalf("Publish #%d = (%d, %v), want (2, nil)", i, n, err)
		}
	}
	waitForEvents(t, c, &gotC, 1+burst)
	// The stalled peer's writer hits the deadline and drops the peer, and
	// everything accepted for it is counted as dropped.
	deadline := time.Now().Add(2 * time.Second)
	for s := a.Stats(); s.DeadlineDrops < 1 || s.QueueDrops != 1+burst; s = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("DeadlineDrops = %d, QueueDrops = %d; want >= 1 and %d", s.DeadlineDrops, s.QueueDrops, 1+burst)
		}
		time.Sleep(time.Millisecond)
	}
}

// smallSendBuffers is the plain TCP transport with the dialing side's send
// buffer cut to 16 KiB, so a subscriber that stops reading fills the path
// within a few 5 KiB records. Its connections stay *net.TCPConn: batch
// frames to them are gathered writes.
type smallSendBuffers struct{ wire.TCP }

func (smallSendBuffers) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, timeout)
	if err == nil {
		err = conn.(*net.TCPConn).SetWriteBuffer(16 << 10)
	}
	return conn, err
}

// TestBatchDeadlineMidFrameCountsEveryRecord: a subscriber that stops
// reading makes a gathered batch write of 5 KiB records block part-way
// through its frame; the write deadline tears the peer down, and every
// record accepted for it is in exactly one of the frames that reached the
// socket whole or QueueDrops — the records of the frame cut short in
// QueueDrops.
func TestBatchDeadlineMidFrameCountsEveryRecord(t *testing.T) {
	const early, burst = 8, 200
	reg := newRegistry(t)
	// The subscriber is a bare listener registered as a member: it accepts
	// the publisher's dial and reads nothing until the peer is gone.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	rc := registry.NewClient(reg.Addr())
	defer rc.Close()
	if _, err := rc.Join("mon", "sink", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	a := join(t, reg, "mon", "alan", &Options{
		WriteDeadline:    200 * time.Millisecond,
		DisableReconnect: true,
		Transport:        smallSendBuffers{},
	})
	sink := <-accepted
	if sink == nil {
		t.Fatal("sink accepted no connection")
	}
	defer sink.Close()
	if !a.WaitForPeers(1, 2*time.Second) {
		t.Fatal("publisher did not connect to the sink")
	}

	a.mu.Lock()
	p := a.peers["sink"]
	a.mu.Unlock()
	large := make([]byte, 5<<10)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if got, err := a.Publish(large, PublishOpts{}); err != nil || got != 1 {
				t.Fatalf("Publish = (%d, %v), want (1, nil)", got, err)
			}
		}
	}
	// First a few records the socket buffers take whole, then a burst they
	// cannot. Holding the write lock while the burst is queued keeps the
	// writer from trickling it out a record at a time: at most its first
	// frame can be short, the next takes 64 records (330 KB) and blocks
	// part-way through.
	deadline := time.Now().Add(5 * time.Second)
	publish(early)
	for p.pending.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the first %d records still unwritten", p.pending.Load(), early)
		}
		time.Sleep(time.Millisecond)
	}
	p.wmu.Lock()
	publish(burst)
	p.wmu.Unlock()
	for a.Stats().DeadlineDrops < 1 || len(a.Peers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("DeadlineDrops = %d, peers %v; want the sink torn down by the deadline", a.Stats().DeadlineDrops, a.Peers())
		}
		time.Sleep(time.Millisecond)
	}

	// The publisher closed the connection: what it wrote drains to EOF.
	stream, err := io.ReadAll(sink)
	if err != nil {
		t.Fatal(err)
	}
	written, off := uint64(0), 0
	for off+wire.HeaderSize <= len(stream) {
		n := int(binary.BigEndian.Uint32(stream[off+4:]))
		if off+wire.HeaderSize+n > len(stream) {
			break
		}
		switch payload := stream[off+wire.HeaderSize : off+wire.HeaderSize+n]; stream[off+3] {
		case frameEvent:
			written++
		case frameBatch:
			written += uint64(binary.BigEndian.Uint32(payload))
		}
		off += wire.HeaderSize + n
	}
	if tail := stream[off:]; len(tail) < wire.HeaderSize || tail[3] != frameBatch {
		t.Fatalf("stream ends with %d bytes after its last whole frame; want part of a batch frame", len(tail))
	}
	if written < early || written >= early+burst {
		t.Fatalf("%d records arrived in whole frames, want the first %d and less than the whole burst", written, early)
	}
	for s := a.Stats(); s.EventsSent != early+burst || s.QueueDrops != early+burst-written; s = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("EventsSent = %d, written whole = %d, QueueDrops = %d; books do not balance at %d", s.EventsSent, written, s.QueueDrops, early+burst)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledPeerSubmitLatencyBounded is the headline publisher-side bound:
// with one of 8 peers stalled, 100 Publish calls complete in a small fraction
// of one write deadline (the pre-fix worst case was ~100 deadlines) and the
// healthy peers still receive every event. The default outbox (1024) absorbs
// the whole burst, so delivery to healthy peers is deterministic.
func TestStalledPeerSubmitLatencyBounded(t *testing.T) {
	const peers = 8
	const events = 100
	f := faultnet.NewFabric(17)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 2 * time.Second, DisableReconnect: true}
	}
	subs := make([]*Channel, peers)
	counts := make([]atomic.Int64, peers)
	for i := 0; i < peers; i++ {
		name := fmt.Sprintf("maui%d", i)
		subs[i], _ = joinFault(t, f, reg.Addr(), "mon", name, opts())
		idx := i
		subs[i].Subscribe(func(Event) { counts[idx].Add(1) })
	}
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(peers, 2*time.Second) {
		t.Fatalf("publisher connected to %v, want %d peers", a.Peers(), peers)
	}

	f.StallWrites("maui0", true)
	start := time.Now()
	for i := 0; i < events; i++ {
		if n, err := a.Publish([]byte("fanout"), PublishOpts{}); err != nil || n != peers {
			t.Fatalf("Publish #%d = (%d, %v), want (%d, nil)", i, n, err, peers)
		}
	}
	elapsed := time.Since(start)
	// Well under one WriteDeadline total — the pre-fix cost was up to
	// events x deadline.
	if elapsed > time.Second {
		t.Fatalf("100 publishes took %v with a stalled peer, want << 2s", elapsed)
	}
	// Every healthy peer receives the full stream.
	for i := 1; i < peers; i++ {
		waitForEvents(t, subs[i], &counts[i], events)
	}
}

// TestStalledPeerOutboxOverflowCounts pins the drop policy: a peer stalled
// for longer than its bounded outbox can absorb loses events, counted in
// QueueDrops, and the publisher stays unblocked throughout. The writer can
// hold at most MaxBatch events in its in-flight batch plus OutboxSize in the
// queue, so OutboxSize+MaxBatch+2 submits guarantee at least one overflow.
func TestStalledPeerOutboxOverflowCounts(t *testing.T) {
	f := faultnet.NewFabric(29)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{
			WriteDeadline:    5 * time.Second,
			OutboxSize:       16,
			MaxBatch:         4,
			DisableReconnect: true,
		}
	}
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	f.StallWrites("maui", true)
	sawOverflow := false
	for i := 0; i < 16+4+2; i++ {
		n, err := a.Publish([]byte("overflow"), PublishOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("every Publish was accepted despite a 16-slot outbox and a stalled writer")
	}
	if d := a.Stats().QueueDrops; d < 1 {
		t.Fatalf("QueueDrops = %d, want >= 1", d)
	}
	f.StallWrites("maui", false)
}

// TestWriterCoalescesBatches holds a peer's writer in a stalled write while
// the publisher queues a burst, then releases the stall: the writer must
// coalesce the queued backlog into batch frames, and the subscriber must see
// the full stream in order.
func TestWriterCoalescesBatches(t *testing.T) {
	const events = 20
	f := faultnet.NewFabric(23)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 5 * time.Second, DisableReconnect: true}
	}
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var mu sync.Mutex
	var seqs []uint64
	var got atomic.Int64
	b.Subscribe(func(ev Event) {
		mu.Lock()
		seqs = append(seqs, ev.Seq)
		mu.Unlock()
		got.Add(1)
	})

	// Stall the writer mid-write; the remaining events pile into the outbox.
	f.StallWrites("maui", true)
	for i := 0; i < events; i++ {
		if _, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	f.StallWrites("maui", false)

	waitForEvents(t, b, &got, events)
	if s := a.Stats(); s.BatchesSent < 1 {
		t.Fatalf("BatchesSent = %d, want >= 1 after a stalled burst", s.BatchesSent)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v, want 1..%d in order (batching must preserve order)", seqs, events)
		}
	}
}

// TestPartitionHealRoundTrip cuts the fabric into two groups, observes the
// mesh fail, heals the cut, and observes delivery resume without manual
// intervention.
func TestPartitionHealRoundTrip(t *testing.T) {
	f := faultnet.NewFabric(11)
	f.SetGroup("alan", "west")
	f.SetGroup("maui", "east")
	reg := newRegistry(t)
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", fastHeal())
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", fastHeal())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	if _, err := a.Publish([]byte("pre-partition"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)

	if n := f.Partition("west", "east"); n < 1 {
		t.Fatalf("Partition killed %d conns, want >= 1", n)
	}
	// The dead connections are noticed and removed; redials across the cut
	// are refused, so the peer set drains.
	deadline := time.Now().Add(5 * time.Second)
	for len(a.Peers()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("partitioned peer still listed: %v", a.Peers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	f.Heal()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not re-form after Heal: a peers=%v", a.Peers())
		}
		if _, err := a.Publish([]byte("post-heal"), PublishOpts{}); err == nil {
			b.Poll()
			if got.Load() >= 2 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJoinSkipsUnreachablePeer: one registered member is unreachable; Join
// must still succeed, connect the reachable peers, and count the skip.
func TestJoinSkipsUnreachablePeer(t *testing.T) {
	f := faultnet.NewFabric(1)
	reg := newRegistry(t)

	// "ghost" registers an address the fabric then refuses — a member that
	// crashed between registering and being dialed.
	ghostLn, err := f.Host("ghost").Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ghostLn.Close()
	rc := registry.NewClient(reg.Addr())
	defer rc.Close()
	if _, err := rc.Join("mon", "ghost", ghostLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	f.Refuse("ghost")

	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", &Options{DisableReconnect: true})
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", &Options{DisableReconnect: true})
	if s := a.Stats().JoinSkips; s < 1 {
		t.Fatalf("JoinSkips = %d, want >= 1", s)
	}
	// The reachable peer is connected and delivery works.
	if !a.WaitForPeers(1, 2*time.Second) {
		t.Fatalf("alan peers = %v, want maui", a.Peers())
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	if _, err := a.Publish([]byte("partial join ok"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)
}

// TestRegistryRestartMembersReRegister restarts the registry on the same
// address and shows the channels' heartbeats transparently re-register both
// members, with Lookup converging and rejoin counters visible.
func TestRegistryRestartMembersReRegister(t *testing.T) {
	f := faultnet.NewFabric(5)
	srv, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	a, ra := joinFault(t, f, addr, "mon", "alan", fastHeal())
	b, _ := joinFault(t, f, addr, "mon", "maui", fastHeal())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Rebind the same address; retry briefly in case the port is slow to free.
	var srv2 *registry.Server
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv2, err = registry.NewServer(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// The fresh registry knows nothing; heartbeats must rebuild its view.
	// The server records a member before it replies, and the client counts
	// the heartbeat and its rejoin only once the reply is back, so wait for
	// the counters too.
	deadline = time.Now().Add(5 * time.Second)
	for s := ra.Stats(); srv2.MemberCount("mon") < 2 || s.Rejoins < 1 || s.Heartbeats < 1; s = ra.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("members re-registered = %d, stats = %+v; want 2, and rejoins and heartbeats >= 1", srv2.MemberCount("mon"), s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Lookup through a fresh client converges on both members.
	nc := registry.NewClient(addr)
	defer nc.Close()
	members, err := nc.Lookup("mon")
	if err != nil || len(members) != 2 {
		t.Fatalf("Lookup = %d members, %v; want 2", len(members), err)
	}
	// The rejoin is visible in the client's counters.
	if s := ra.Stats(); s.Rejoins < 1 || s.Heartbeats < 1 {
		t.Fatalf("stats = %+v, want rejoins and heartbeats >= 1", s)
	}
	// And the mesh still delivers.
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	sent := false
	deadline = time.Now().Add(5 * time.Second)
	for !sent || got.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after registry restart")
		}
		if n, err := a.Publish([]byte("post-restart"), PublishOpts{}); err == nil && n >= 1 {
			sent = true
		}
		b.Poll()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLargeEventBurstSplitsBatches pins the byte bound on batch coalescing:
// individual events may legally approach wire.MaxFrameSize, so a backlog of
// large events must split across several frames rather than coalesce into
// one oversized frame the wire layer rejects (which would tear down a
// healthy peer and lose the whole batch). Five 5 MiB events queue behind a
// stalled write; count alone (MaxBatch 64) would coalesce all of them into
// a ~26 MiB frame.
func TestLargeEventBurstSplitsBatches(t *testing.T) {
	const events = 5
	const eventSize = 5 << 20
	f := faultnet.NewFabric(37)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 5 * time.Second, DisableReconnect: true}
	}
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	var sizes []int
	var mu sync.Mutex
	b.Subscribe(func(ev Event) {
		mu.Lock()
		sizes = append(sizes, len(ev.Payload))
		mu.Unlock()
		got.Add(1)
	})

	// Stall the writer mid-write so the rest of the burst piles up and the
	// coalesce loop sees all of it at once when the stall lifts.
	f.StallWrites("maui", true)
	payload := make([]byte, eventSize)
	for i := 0; i < events; i++ {
		if n, err := a.Publish(payload, PublishOpts{}); err != nil || n != 1 {
			t.Fatalf("Publish #%d = (%d, %v), want (1, nil)", i, n, err)
		}
	}
	f.StallWrites("maui", false)

	waitForEvents(t, b, &got, events)
	// The peer survived: the burst was split, not rejected.
	if peers := a.Peers(); len(peers) != 1 {
		t.Fatalf("publisher peers = %v after large burst, want [maui]", peers)
	}
	if d := a.Stats().QueueDrops; d != 0 {
		t.Fatalf("QueueDrops = %d, want 0 (no event may be lost)", d)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range sizes {
		if s != eventSize {
			t.Fatalf("event %d arrived with %d bytes, want %d", i, s, eventSize)
		}
	}
}

// TestOversizeEventDroppedPeerSurvives: a single event too large for the
// wire format can never be delivered; it must be dropped and counted, not
// kill the connection. Subsequent normal events still flow.
func TestOversizeEventDroppedPeerSurvives(t *testing.T) {
	f := faultnet.NewFabric(41)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 5 * time.Second, DisableReconnect: true}
	}
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })

	// The payload alone fills MaxFrameSize; the event envelope (member ID,
	// seq, length prefixes) pushes the record past it.
	if _, err := a.Publish(make([]byte, wire.MaxFrameSize), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish([]byte("small follows oversize"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)
	if peers := a.Peers(); len(peers) != 1 {
		t.Fatalf("publisher peers = %v after oversize event, want [maui]", peers)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().QueueDrops < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDrops = %d, want >= 1 (oversize event)", a.Stats().QueueDrops)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrainsAcceptedEvents pins Close's graceful drain: events already
// accepted by Publish are flushed (bounded by one write deadline) before the
// peer connections are torn down, so a clean shutdown does not silently
// discard the tail of the stream.
func TestCloseDrainsAcceptedEvents(t *testing.T) {
	const events = 10
	f := faultnet.NewFabric(43)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: 5 * time.Second, DisableReconnect: true}
	}
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })

	// Queue a burst behind a stalled write, lift the stall while Close is
	// (or is about to start) draining: every accepted event must arrive.
	f.StallWrites("maui", true)
	for i := 0; i < events; i++ {
		if n, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil || n != 1 {
			t.Fatalf("Publish #%d = (%d, %v), want (1, nil)", i, n, err)
		}
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		f.StallWrites("maui", false)
	}()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, events)
}

// TestReactorStallIsolation pins the shared-writer fairness bound: with a
// single reactor writer servicing every peer, one stalled peer may hold that
// writer for at most one write deadline before it is dropped — so the
// healthy peers sharing the reactor receive their event within roughly one
// deadline, never behind an unbounded stall.
func TestReactorStallIsolation(t *testing.T) {
	const wd = 400 * time.Millisecond
	f := faultnet.NewFabric(59)
	reg := newRegistry(t)
	opts := func() *Options {
		return &Options{WriteDeadline: wd, Writers: 1, DisableReconnect: true}
	}
	joinFault(t, f, reg.Addr(), "mon", "maui", opts()) // the stalled one
	h1, _ := joinFault(t, f, reg.Addr(), "mon", "hilo", opts())
	h2, _ := joinFault(t, f, reg.Addr(), "mon", "kona", opts())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
	if !a.WaitForPeers(3, 2*time.Second) {
		t.Fatalf("publisher connected to %v, want 3 peers", a.Peers())
	}
	var got1, got2 atomic.Int64
	h1.Subscribe(func(Event) { got1.Add(1) })
	h2.Subscribe(func(Event) { got2.Add(1) })

	f.StallWrites("maui", true)
	defer f.StallWrites("maui", false)
	start := time.Now()
	if n, err := a.Publish([]byte("shared-reactor"), PublishOpts{}); err != nil || n != 3 {
		t.Fatalf("Publish = (%d, %v), want (3, nil)", n, err)
	}
	for got1.Load() < 1 || got2.Load() < 1 {
		h1.Poll()
		h2.Poll()
		if time.Since(start) > 2*wd {
			t.Fatalf("healthy peers saw (%d, %d) events after %v; one stalled peer delayed its reactor-mates beyond one write deadline (%v)",
				got1.Load(), got2.Load(), time.Since(start), wd)
		}
		time.Sleep(time.Millisecond)
	}
	// The stalled peer itself pays the deadline and is dropped.
	deadline := time.Now().Add(2 * wd)
	for a.Stats().DeadlineDrops < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("DeadlineDrops = %d, want >= 1", a.Stats().DeadlineDrops)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillReviveMidDrainAccounting kills a peer while its outbox is
// mid-drain (the writer blocked inside a stalled write with a full batch
// behind it), lets the supervisor revive the mesh, and then requires the
// publisher's books to balance exactly: every accepted event was either
// delivered or landed in QueueDrops — nothing leaks when teardown, drain,
// and revival race.
func TestKillReviveMidDrainAccounting(t *testing.T) {
	const events = 40
	f := faultnet.NewFabric(61)
	reg := newRegistry(t)
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", fastHeal())
	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", fastHeal())
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })

	// Queue a burst behind a stalled write, then kill the connection out
	// from under the draining writer.
	f.StallWrites("maui", true)
	for i := 0; i < events; i++ {
		if n, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil || n != 1 {
			t.Fatalf("Publish #%d = (%d, %v), want (1, nil)", i, n, err)
		}
	}
	if n := f.Sever("alan", "maui"); n < 1 {
		t.Fatalf("Sever killed %d conns, want >= 1", n)
	}
	f.StallWrites("maui", false)

	// The supervisor revives the mesh and a fresh event flows end-to-end.
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 {
		if len(a.Peers()) > 0 {
			a.Publish([]byte("probe"), PublishOpts{})
		}
		b.Poll()
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not revive: peers=%v reconnects=%d",
				a.Peers(), a.Stats().Reconnects+b.Stats().Reconnects)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Books must balance: accepted == delivered + dropped. The burst that
	// died with the severed conn must be in QueueDrops in full.
	deadline = time.Now().Add(5 * time.Second)
	for {
		b.Poll()
		s := a.Stats()
		if s.QueueDrops >= events && s.EventsSent == uint64(got.Load())+s.QueueDrops {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: EventsSent=%d delivered=%d QueueDrops=%d (want sent == delivered+drops, drops >= %d)",
				s.EventsSent, got.Load(), s.QueueDrops, events)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
