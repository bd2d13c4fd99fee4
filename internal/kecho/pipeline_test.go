package kecho

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/registry"
	"dproc/internal/wire"
)

// TestSilentDialerDoesNotWedgeAccept pins the accept path against a
// connection that never sends its hello (port scan, half-open peer): the
// reader owns it, so the accepts behind it proceed.
func TestSilentDialerDoesNotWedgeAccept(t *testing.T) {
	reg := newRegistry(t)
	// No supervisor: a must learn of b through its accept loop, not by
	// dialing it back.
	a := join(t, reg, "mon", "a", &Options{DisableReconnect: true})
	silent, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Let a's accept loop pick the silent conn up before the real dialer.
	time.Sleep(20 * time.Millisecond)

	join(t, reg, "mon", "b", nil)
	if !a.WaitForPeers(1, time.Second) {
		t.Fatal("a silent dialer blocked the accept of the member behind it")
	}
}

// rawMember dials ch as member id and completes the hello, returning the
// conn for hand-built frames.
func rawMember(t *testing.T, ch *Channel, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ch.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := wire.NewEncoder(64)
	hello.String(ch.Name())
	hello.String(id)
	if err := wire.WriteFrame(conn, frameHello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !ch.WaitForPeers(1, time.Second) {
		t.Fatalf("hello from %s was not accepted", id)
	}
	return conn
}

// TestMalformedInputDropsPeer pins that record and batch corruption behave
// like frame corruption: counted, and the connection torn down.
func TestMalformedInputDropsPeer(t *testing.T) {
	record := wire.AppendString(nil, "evil")
	record = binary.BigEndian.AppendUint64(record, 1)
	record = wire.AppendBytesField(record, []byte("body"))
	// One record whose length prefix runs past the end of the frame.
	overrun := binary.BigEndian.AppendUint32(nil, 1)
	overrun = binary.BigEndian.AppendUint32(overrun, uint32(len(record)+100))
	overrun = append(overrun, record...)
	for _, tc := range []struct {
		name    string
		typ     uint8
		payload []byte
	}{
		{"batch inner length overruns", frameBatch, overrun},
		{"batch holds a bad record", frameBatch, wire.EncodeBatch([][]byte{record, record[:len(record)-2]})},
		{"record has trailing bytes", frameEvent, append(record[:len(record):len(record)], 0xff, 0xff, 0xff)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newRegistry(t)
			ch := join(t, reg, "mon", "a", &Options{DisableReconnect: true})
			conn := rawMember(t, ch, "evil")
			if err := wire.WriteFrame(conn, tc.typ, tc.payload); err != nil {
				t.Fatal(err)
			}
			// The channel hangs up on us...
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after malformed frame = %v, want EOF (connection dropped)", err)
			}
			// ...having counted it and dropped the peer.
			deadline := time.Now().Add(2 * time.Second)
			for len(ch.Peers()) != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("peers = %v after malformed frame, want none", ch.Peers())
				}
				time.Sleep(time.Millisecond)
			}
			if got := ch.Stats().Malformed; got != 1 {
				t.Fatalf("Malformed = %d, want 1", got)
			}
		})
	}
}

// TestMixedVersionChannelLosesNothing pins DESIGN §13's version-skew
// promise, each way. An older sender sends a lone record as a frameEvent and
// several as a frameBatch: over a real connection every record of both is
// delivered, in order, and the peer kept. This writer sends every frame as
// a frameBatch, a lone record as a batch of one: the receive path an older
// receiver runs on it — DecodeBatchInto, then receiveFrame — delivers it.
func TestMixedVersionChannelLosesNothing(t *testing.T) {
	t.Run("older sender to this receiver", func(t *testing.T) {
		reg := newRegistry(t)
		ch := join(t, reg, "mon", "self", &Options{DisableReconnect: true})
		var mu sync.Mutex
		var seqs []uint64
		var got atomic.Int64
		ch.Subscribe(func(ev Event) {
			if ev.From != "old" || !bytes.Equal(ev.Payload, testBody(ev.Seq, 64)) {
				t.Errorf("seq %d: from %q, payload %x", ev.Seq, ev.From, ev.Payload)
			}
			mu.Lock()
			seqs = append(seqs, ev.Seq)
			mu.Unlock()
			got.Add(1)
		})
		record := func(seq uint64) []byte { return testRecord("old", seq, testBody(seq, 64)) }
		conn := rawMember(t, ch, "old")
		for _, f := range []struct {
			typ     uint8
			payload []byte
		}{
			{frameEvent, record(1)},
			{frameBatch, wire.EncodeBatch([][]byte{record(2), record(3)})},
			{frameEvent, record(4)},
		} {
			if err := wire.WriteFrame(conn, f.typ, f.payload); err != nil {
				t.Fatal(err)
			}
		}
		waitForEvents(t, ch, &got, 4)
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(seqs, []uint64{1, 2, 3, 4}) {
			t.Fatalf("delivered seqs %v, want [1 2 3 4]", seqs)
		}
		if peers, bad := ch.Peers(), ch.Stats().Malformed; len(peers) != 1 || bad != 0 {
			t.Fatalf("peers %v, Malformed %d; want [old] and 0", peers, bad)
		}
	})
	t.Run("this sender to older receiver", func(t *testing.T) {
		pub := newTestChannel(Options{})
		cc := &countConn{keep: true}
		pub.peers["sub"] = pub.newPeer("sub", cc)
		body := testBody(1, 64)
		if n, err := pub.Publish(body, PublishOpts{}); err != nil || n != 1 {
			t.Fatalf("Publish = (%d, %v), want (1, nil)", n, err)
		}
		serviceReady(pub, newWriterScratch(pub.opts.MaxBatch))
		if cc.writes != 1 {
			t.Fatalf("%d writes for one record, want 1", cc.writes)
		}
		typ, payload, err := wire.NewFrameReader(bytes.NewReader(cc.frames[0])).Next()
		if err != nil || typ != frameBatch {
			t.Fatalf("frame type %d, %v; want a batch frame (%d)", typ, err, frameBatch)
		}
		sub := newChannel("mon", "sub", Options{}.withDefaults())
		var evs []Event
		sub.Subscribe(func(ev Event) {
			ev.Payload = bytes.Clone(ev.Payload)
			evs = append(evs, ev)
		})
		if _, err := sub.handleFrame(&peer{id: "self"}, typ, payload, nil); err != nil {
			t.Fatal(err)
		}
		sub.Poll()
		if len(evs) != 1 || evs[0].From != "self" || evs[0].Seq != 1 || !bytes.Equal(evs[0].Payload, body) {
			t.Fatalf("delivered %+v, want self's seq 1 with its body", evs)
		}
	})
}

// TestHandlerPublishesOnOwnChannel pins that in-place dispatch tolerates a
// handler that publishes on the channel it is running on: two members bounce
// events back and forth with no dispatcher goroutine between them, and
// neither the dispatch mutex nor the channel lock deadlocks.
func TestHandlerPublishesOnOwnChannel(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", &Options{Dispatch: EventDriven})
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven})
	if !a.WaitForPeers(1, time.Second) || !b.WaitForPeers(1, time.Second) {
		t.Fatal("mesh did not form")
	}
	const total, balls = 10000, 8
	var hops atomic.Int64
	done := make(chan struct{})
	bounce := func(c *Channel) Handler {
		return func(ev Event) {
			switch n := hops.Add(1); {
			case n == total:
				close(done)
			case n <= total-balls: // the last hop of each ball is not returned
				if _, err := c.Publish(ev.Payload, PublishOpts{}); err != nil {
					t.Error(err)
				}
			}
		}
	}
	a.Subscribe(bounce(a))
	b.Subscribe(bounce(b))
	for i := 0; i < balls; i++ {
		if _, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("ping-pong stopped at %d/%d hops", hops.Load(), total)
	}
	if a.Poll() != 0 || a.Pending() != 0 || b.Pending() != 0 {
		t.Fatal("Poll/Pending must report 0 in EventDriven mode")
	}
	if d := a.Stats().QueueDrops + b.Stats().QueueDrops; d != 0 {
		t.Fatalf("%d queue drops with at most %d events in flight", d, balls)
	}
}

// TestCloseWaitsForBlockedHandler pins Close against an in-place handler
// that is still running: Close returns once the handler is released, not
// before and not never.
func TestCloseWaitsForBlockedHandler(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven})
	if !a.WaitForPeers(1, time.Second) || !b.WaitForPeers(1, time.Second) {
		t.Fatal("mesh did not form")
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	b.Subscribe(func(Event) {
		close(entered)
		<-release
	})
	if _, err := a.Publish([]byte("block"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler was released")
	}
}

// TestDispatchImmediateStillParses pins the two-mode surface: the old third
// mode's flag spelling (dprocd -dispatch immediate) still parses, and means
// in-place dispatch.
func TestDispatchImmediateStillParses(t *testing.T) {
	for _, s := range []string{"immediate", "event"} {
		if m, err := ParseDispatchMode(s); err != nil || m != EventDriven {
			t.Fatalf("ParseDispatchMode(%q) = %v, %v; want EventDriven", s, m, err)
		}
	}
	if m, err := ParseDispatchMode("poll"); err != nil || m != Polled {
		t.Fatalf("ParseDispatchMode(poll) = %v, %v", m, err)
	}
}

// readCountTransport is plain TCP that counts the dialed connections which
// were ever read from. The dialing end reads a connection only in the reader
// the peer set starts for a connection it keeps, so the count is the number
// of dialed connections actually installed.
type readCountTransport struct {
	wire.TCP
	read atomic.Int64
}

func (t *readCountTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	conn, err := t.TCP.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return &readCountConn{Conn: conn, t: t}, nil
}

type readCountConn struct {
	net.Conn
	t     *readCountTransport
	first sync.Once
}

func (c *readCountConn) Read(b []byte) (int, error) {
	c.first.Do(func() { c.t.read.Add(1) })
	return c.Conn.Read(b)
}

// TestCrossDialKeepsOneConnection pins the duplicate-connection tie-break:
// when two members dial each other at the same moment (a RefreshPeers that
// overtakes the accept of a connection already on its way), both ends must
// settle on the same connection. With no supervisor to re-dial, a pair in
// which each end kept the connection the other one closed stays apart. It
// also pins the accounting of those dials: dialPeer's kept result — the one
// figure Stats.Reconnects and RefreshPeers' count are summed from — is true
// exactly for the connections the peer set installed, not for the ones the
// tie-break refused.
func TestCrossDialKeepsOneConnection(t *testing.T) {
	reg := newRegistry(t)
	tr := &readCountTransport{}
	opts := Options{DisableReconnect: true, Dispatch: EventDriven, Transport: tr}
	a := join(t, reg, "mon", "a", &opts)
	b := join(t, reg, "mon", "b", &opts)
	var atA, atB atomic.Int64
	a.Subscribe(func(Event) { atA.Add(1) })
	b.Subscribe(func(Event) { atB.Add(1) })
	ma := registry.Member{ID: "a", Addr: a.Addr()}
	mb := registry.Member{ID: "b", Addr: b.Addr()}
	var kept atomic.Int64
	kept.Add(1) // b's Join dialed a

	for round := 0; round < 100; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		dial := func(c *Channel, m registry.Member) {
			defer wg.Done()
			if ok, _ := c.dialPeer(m); ok {
				kept.Add(1)
			}
		}
		go dial(a, mb)
		go dial(b, ma)
		wg.Wait()
		// However the two dials and their accepts interleaved, an event gets
		// through each way once they have settled (one sent while a loser is
		// still being torn down may be lost; keep sending).
		wasA, wasB := atA.Load(), atB.Load()
		deadline := time.Now().Add(2 * time.Second)
		for atA.Load() == wasA || atB.Load() == wasB {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: pair apart after a cross-dial: a sees %v, b sees %v",
					round, a.Peers(), b.Peers())
			}
			_, _ = a.Publish([]byte("a"), PublishOpts{})
			_, _ = b.Publish([]byte("b"), PublishOpts{})
			time.Sleep(time.Millisecond)
		}
	}
	if pa, pb := a.Peers(), b.Peers(); len(pa) != 1 || len(pb) != 1 {
		t.Fatalf("peers after cross-dials: a %v, b %v; want one each", pa, pb)
	}
	// Every kept connection got a reader, every refused one was closed
	// unread; the readers of the last round may still be starting.
	deadline := time.Now().Add(2 * time.Second)
	for tr.read.Load() != kept.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if installed := tr.read.Load(); installed != kept.Load() {
		t.Fatalf("200 cross-dials reported %d connections kept, %d were installed", kept.Load()-1, installed-1)
	}
}
