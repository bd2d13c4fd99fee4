package kecho

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

func newRegistry(t *testing.T) *registry.Server {
	t.Helper()
	s, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func join(t *testing.T, reg *registry.Server, channel, id string, opts *Options) *Channel {
	t.Helper()
	client := registry.NewClient(reg.Addr())
	t.Cleanup(func() { client.Close() })
	c, err := Join(client, channel, id, opts)
	if err != nil {
		t.Fatalf("Join(%s, %s): %v", channel, id, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitForEvents polls ch until its handler has seen want events or times out.
func waitForEvents(t *testing.T, ch *Channel, count *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() < want {
		ch.Poll()
		if time.Now().After(deadline) {
			t.Fatalf("saw %d events, want %d", count.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTwoMemberDelivery(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "alan", nil)
	b := join(t, reg, "mon", "maui", nil)
	if !a.WaitForPeers(1, time.Second) || !b.WaitForPeers(1, time.Second) {
		t.Fatal("mesh did not form")
	}

	var got atomic.Int64
	var payload []byte
	var from string
	var mu sync.Mutex
	b.Subscribe(func(ev Event) {
		mu.Lock()
		payload = ev.Payload
		from = ev.From
		mu.Unlock()
		got.Add(1)
	})
	n, err := a.Publish([]byte("loadavg 2.5"), PublishOpts{})
	if err != nil || n != 1 {
		t.Fatalf("Publish = (%d, %v)", n, err)
	}
	waitForEvents(t, b, &got, 1)
	mu.Lock()
	defer mu.Unlock()
	if string(payload) != "loadavg 2.5" || from != "alan" {
		t.Fatalf("event = %q from %q", payload, from)
	}
}

func TestPeerToPeerMeshFanout(t *testing.T) {
	reg := newRegistry(t)
	const n = 5
	chans := make([]*Channel, n)
	counts := make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		chans[i] = join(t, reg, "mon", fmt.Sprintf("node%d", i), nil)
		idx := i
		chans[i].Subscribe(func(Event) { counts[idx].Add(1) })
	}
	for i := 0; i < n; i++ {
		if !chans[i].WaitForPeers(n-1, 2*time.Second) {
			t.Fatalf("node%d has peers %v, want %d", i, chans[i].Peers(), n-1)
		}
	}
	// Each member submits one event; every other member must receive it.
	for i := 0; i < n; i++ {
		sent, err := chans[i].Publish([]byte{byte(i)}, PublishOpts{})
		if err != nil || sent != n-1 {
			t.Fatalf("node%d Publish = (%d, %v), want %d", i, sent, err, n-1)
		}
	}
	for i := 0; i < n; i++ {
		waitForEvents(t, chans[i], &counts[i], int64(n-1))
	}
	// No self-delivery.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		chans[i].Poll()
		if got := counts[i].Load(); got != int64(n-1) {
			t.Fatalf("node%d received %d events, want exactly %d", i, got, n-1)
		}
	}
}

func TestPolledEventsWaitForPoll(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	if _, err := a.Publish([]byte("x"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	// Wait until queued, but unpolled events must not dispatch.
	deadline := time.Now().Add(2 * time.Second)
	for b.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", b.Pending())
	}
	if got.Load() != 0 {
		t.Fatal("handler ran before Poll in polled mode")
	}
	if n := b.Poll(); n != 1 {
		t.Fatalf("Poll = %d, want 1", n)
	}
	if got.Load() != 1 {
		t.Fatal("handler did not run during Poll")
	}
}

func TestSubmitTo(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "ctl", "a", nil)
	b := join(t, reg, "ctl", "b", nil)
	c := join(t, reg, "ctl", "c", nil)
	a.WaitForPeers(2, time.Second)
	b.WaitForPeers(2, time.Second)
	c.WaitForPeers(2, time.Second)

	var bGot, cGot atomic.Int64
	b.Subscribe(func(Event) { bGot.Add(1) })
	c.Subscribe(func(Event) { cGot.Add(1) })
	if err := a.SubmitTo("b", []byte("filter code")); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &bGot, 1)
	time.Sleep(20 * time.Millisecond)
	c.Poll()
	if cGot.Load() != 0 {
		t.Fatal("targeted submit leaked to another peer")
	}
	if err := a.SubmitTo("ghost", nil); err == nil {
		t.Fatal("SubmitTo unknown peer succeeded")
	}
}

func TestEventSequenceNumbers(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	var mu sync.Mutex
	var seqs []uint64
	var got atomic.Int64
	b.Subscribe(func(ev Event) {
		mu.Lock()
		seqs = append(seqs, ev.Seq)
		mu.Unlock()
		got.Add(1)
	})
	for i := 0; i < 5; i++ {
		if _, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	waitForEvents(t, b, &got, 5)
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v, want 1..5 in order", seqs)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	payload := make([]byte, 100)
	for i := 0; i < 3; i++ {
		if _, err := a.Publish(payload, PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	waitForEvents(t, b, &got, 3)
	as, bs := a.Stats(), b.Stats()
	if as.EventsSent != 3 {
		t.Fatalf("a.EventsSent = %d", as.EventsSent)
	}
	if bs.EventsRecv != 3 {
		t.Fatalf("b.EventsRecv = %d", bs.EventsRecv)
	}
	if as.BytesSent < 300 || bs.BytesRecv < 300 {
		t.Fatalf("bytes: sent=%d recv=%d, want >= 300", as.BytesSent, bs.BytesRecv)
	}
	if bs.Dropped != 0 {
		t.Fatalf("Dropped = %d", bs.Dropped)
	}
}

// TestByteAccountingSymmetric pins the sent/recv convention: both sides
// count event payload bytes, so a loopback pair's counters agree exactly —
// regardless of envelope size or whether the transport batched frames.
func TestByteAccountingSymmetric(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	var want uint64
	for _, size := range []int{0, 1, 37, 4096} {
		if _, err := a.Publish(make([]byte, size), PublishOpts{}); err != nil {
			t.Fatal(err)
		}
		want += uint64(size)
	}
	waitForEvents(t, b, &got, 4)
	as, bs := a.Stats(), b.Stats()
	if as.BytesSent != want {
		t.Fatalf("BytesSent = %d, want %d (payload bytes)", as.BytesSent, want)
	}
	if bs.BytesRecv != as.BytesSent {
		t.Fatalf("BytesRecv = %d != BytesSent = %d", bs.BytesRecv, as.BytesSent)
	}
}

// TestPollBoundedDrain pins the live-lock fix: Poll drains at most the
// events queued at call time, so a handler that keeps refilling the inbox
// (a producer keeping pace with the consumer) cannot trap the poll tick.
func TestPollBoundedDrain(t *testing.T) {
	b := newTestChannel(Options{})
	src := &peer{id: "pub"}
	const preload = 5
	// A pathological consumer: every dispatched event queues another frame,
	// so an unbounded drain would never see an empty inbox.
	seq := uint64(preload)
	b.Subscribe(func(Event) {
		seq++
		if _, err := b.handleFrame(src, frameEvent, testRecord("pub", seq, []byte{1}), nil); err != nil {
			t.Error(err)
		}
	})
	for i := uint64(1); i <= preload; i++ {
		if _, err := b.handleFrame(src, frameEvent, testRecord("pub", i, []byte{0}), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Poll(); n != preload {
		t.Fatalf("Poll = %d, want exactly the %d events queued at call time", n, preload)
	}
	if p := b.Pending(); p != preload {
		t.Fatalf("Pending = %d after Poll, want %d refilled events", p, preload)
	}
}

func TestInboxOverflowDropsAndCounts(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", &Options{InboxSize: 4})
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	for i := 0; i < 50; i++ {
		if _, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the receiver to chew through the stream.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := b.Stats()
		if s.EventsRecv == 50 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := b.Stats()
	if s.EventsRecv != 50 {
		t.Fatalf("EventsRecv = %d, want 50", s.EventsRecv)
	}
	if s.Dropped == 0 {
		t.Fatal("no events dropped despite a 4-slot inbox and no polling")
	}
	if b.Pending() > 4 {
		t.Fatalf("Pending = %d exceeds inbox size", b.Pending())
	}
}

func TestPeerDisconnectPrunesMesh(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)
	b.Close()
	// After b closes, a's submit discovers the dead peer and prunes it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		n, err := a.Publish([]byte("ping"), PublishOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && len(a.Peers()) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer b still connected: peers=%v", a.Peers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRefreshPeersHealsMesh(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	bOld := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	// b dies without a clean leave: close its listener and connections by
	// closing the channel, then manually re-register a fresh incarnation.
	bOld.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(a.Peers()) != 0 {
		a.Publish([]byte("probe"), PublishOpts{}) // prune the dead peer
		if time.Now().After(deadline) {
			t.Fatal("dead peer never pruned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	bNew := join(t, reg, "mon", "b", nil)
	_ = bNew
	// a does not know about the new b (b dialed a? No: joiners dial only
	// prior members — b dialed a). Wait: the rejoin dials a directly.
	if !a.WaitForPeers(1, time.Second) {
		// If the dial direction did not reconnect us, RefreshPeers must.
		dialed, err := a.RefreshPeers()
		if err != nil || dialed != 1 {
			t.Fatalf("RefreshPeers = (%d, %v)", dialed, err)
		}
	}
	if len(a.Peers()) != 1 || a.Peers()[0] != "b" {
		t.Fatalf("peers after heal = %v", a.Peers())
	}
	// RefreshPeers with a complete mesh is a no-op.
	dialed, err := a.RefreshPeers()
	if err != nil || dialed != 0 {
		t.Fatalf("idempotent RefreshPeers = (%d, %v)", dialed, err)
	}
}

func TestRefreshPeersOnClosedChannel(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	a.Close()
	if _, err := a.RefreshPeers(); err == nil {
		t.Fatal("RefreshPeers on closed channel succeeded")
	}
}

func TestSubmitOnClosedChannel(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	a.Close()
	if _, err := a.Publish([]byte("x"), PublishOpts{}); err == nil {
		t.Fatal("Publish on closed channel succeeded")
	}
	if err := a.SubmitTo("b", nil); err == nil {
		t.Fatal("SubmitTo on closed channel succeeded")
	}
}

func TestCloseIsIdempotentAndLeavesRegistry(t *testing.T) {
	regSrv := newRegistry(t)
	a := join(t, regSrv, "mon", "a", nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	rc := registry.NewClient(regSrv.Addr())
	defer rc.Close()
	if members, err := rc.Lookup("mon"); err != nil || len(members) != 0 {
		t.Fatalf("registry still lists %v (%v) after Close", members, err)
	}
}

func TestMonitoringAndControlChannelPair(t *testing.T) {
	// The dproc architecture uses two channels per node; verify the same
	// member ID can join both independently.
	reg := newRegistry(t)
	monA := join(t, reg, "dproc.monitoring", "alan", nil)
	ctlA := join(t, reg, "dproc.control", "alan", nil)
	monB := join(t, reg, "dproc.monitoring", "maui", nil)
	ctlB := join(t, reg, "dproc.control", "maui", nil)
	monA.WaitForPeers(1, time.Second)
	ctlA.WaitForPeers(1, time.Second)

	var monGot, ctlGot atomic.Int64
	monB.Subscribe(func(Event) { monGot.Add(1) })
	ctlB.Subscribe(func(Event) { ctlGot.Add(1) })
	if _, err := monA.Publish([]byte("data"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, monB, &monGot, 1)
	time.Sleep(20 * time.Millisecond)
	ctlB.Poll()
	if ctlGot.Load() != 0 {
		t.Fatal("monitoring event crossed into the control channel")
	}
}

func TestLargeEventPayload(t *testing.T) {
	// SmartPointer sends 3 MB events (Figure 10); the channel must carry them.
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	payload := make([]byte, 3<<20)
	payload[0], payload[len(payload)-1] = 0xAB, 0xCD
	var got atomic.Int64
	var recvLen atomic.Int64
	b.Subscribe(func(ev Event) {
		recvLen.Store(int64(len(ev.Payload)))
		got.Add(1)
	})
	if _, err := a.Publish(payload, PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)
	if recvLen.Load() != 3<<20 {
		t.Fatalf("received %d bytes, want %d", recvLen.Load(), 3<<20)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", nil)
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	var got atomic.Int64
	b.Subscribe(func(Event) { got.Add(1) })
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := a.Publish([]byte("c"), PublishOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitForEvents(t, b, &got, goroutines*per)
}

// TestOptionDefaults pins the one defaults function: the zero Options and
// DefaultOptions() resolve to the same effective value in every field that
// has a default, and resolving twice changes nothing.
func TestOptionDefaults(t *testing.T) {
	zero, def := Options{}.withDefaults(), DefaultOptions().withDefaults()
	for _, f := range []struct {
		name string
		get  func(Options) any
		want any
	}{
		{"InboxSize", func(o Options) any { return o.InboxSize }, 4096},
		{"Transport", func(o Options) any { return o.Transport }, wire.TCP{}},
		{"WriteDeadline", func(o Options) any { return o.WriteDeadline }, 5 * time.Second},
		{"OutboxSize", func(o Options) any { return o.OutboxSize }, 1024},
		{"MaxBatch", func(o Options) any { return o.MaxBatch }, 64},
		{"Writers", func(o Options) any { return o.Writers >= 2 && o.Writers <= 8 }, true},
		{"ReconnectInterval", func(o Options) any { return o.ReconnectInterval }, 250 * time.Millisecond},
		{"Clock", func(o Options) any { return fmt.Sprintf("%T", o.Clock) }, "*clock.Real"},
		{"Topology", func(o Options) any { return o.Topology }, overlay.FullMesh{}},
	} {
		if z, d := f.get(zero), f.get(def); z != f.want || d != f.want {
			t.Errorf("%s: Options{} resolves to %v, DefaultOptions() to %v, want %v", f.name, z, d, f.want)
		}
	}
	if zero.Writers != def.Writers {
		t.Errorf("Writers: Options{} resolves to %d, DefaultOptions() to %d", zero.Writers, def.Writers)
	}
	// What a caller set survives, including the value with a meaning of its
	// own: a negative WriteDeadline (disabled).
	set := Options{WriteDeadline: -1, ReconnectInterval: time.Second, OutboxSize: 7}.withDefaults()
	if set.WriteDeadline != -1 || set.ReconnectInterval != time.Second || set.OutboxSize != 7 {
		t.Errorf("caller's values: WriteDeadline %v, ReconnectInterval %v, OutboxSize %d", set.WriteDeadline, set.ReconnectInterval, set.OutboxSize)
	}
}

// An un-relayed record speaks for its connection only: a dialer that greets
// as "a" and then sends a record naming "b" as its publisher has it
// refused, counted in WrongOrigin and the channel's registry, while its
// own records on the same connection are delivered as "a"'s.
func TestUnrelayedRecordSpeaksForItsConnection(t *testing.T) {
	reg := newRegistry(t)
	ch := join(t, reg, "mon", "self", nil)
	var mu sync.Mutex
	var from []string
	var got atomic.Int64
	ch.Subscribe(func(ev Event) {
		mu.Lock()
		from = append(from, ev.From)
		mu.Unlock()
		got.Add(1)
	})
	conn, err := wire.TCP{}.DialTimeout("tcp", ch.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.NewEncoder(32)
	hello.String("mon")
	hello.String("a")
	for _, f := range []struct {
		typ     uint8
		payload []byte
	}{
		{frameHello, hello.Bytes()},
		{frameEvent, testRecord("b", 1, []byte("forged"))},
		{frameEvent, testRecord("a", 1, []byte("own"))},
	} {
		if err := wire.WriteFrame(conn, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	waitForEvents(t, ch, &got, 1)
	ch.Poll()
	mu.Lock()
	defer mu.Unlock()
	if len(from) != 1 || from[0] != "a" {
		t.Fatalf("delivered records from %v, want only a's own", from)
	}
	if n := ch.Stats().WrongOrigin; n != 1 {
		t.Fatalf("WrongOrigin = %d, want 1", n)
	}
}
