package kecho

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// TestPeersSorted pins the documented Peers() contract: the returned IDs are
// sorted regardless of join or connection order.
func TestPeersSorted(t *testing.T) {
	reg := newRegistry(t)
	// Join in an order that is neither sorted nor reverse-sorted.
	for _, id := range []string{"mango", "apple", "zebra", "kiwi"} {
		join(t, reg, "mon", id, nil)
	}
	probe := join(t, reg, "mon", "probe", nil)
	if !probe.WaitForPeers(4, 2*time.Second) {
		t.Fatalf("mesh did not form: %v", probe.Peers())
	}
	got := probe.Peers()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Peers() = %v, want sorted", got)
	}
}

// deliveryLog counts deliveries per (origin, seq) so tests can assert
// exactly-once semantics rather than just totals.
type deliveryLog struct {
	mu    sync.Mutex
	seen  map[string]int
	total atomic.Int64
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{seen: map[string]int{}}
}

func (l *deliveryLog) handler(ev Event) {
	l.mu.Lock()
	l.seen[fmt.Sprintf("%s/%d", ev.From, ev.Seq)]++
	l.mu.Unlock()
	l.total.Add(1)
}

// dups returns the (origin, seq) keys delivered more than once.
func (l *deliveryLog) dups() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for k, n := range l.seen {
		if n > 1 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (l *deliveryLog) count(origin string, seq uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[fmt.Sprintf("%s/%d", origin, seq)]
}

// treeOpts returns fast-converging overlay options for tests: quick
// supervisor rounds plus immediate dispatch so deliveries need no polling.
func treeOpts(branching int) *Options {
	o := fastHeal()
	o.Dispatch = EventDriven
	o.Topology = overlay.RelayTree{Branching: branching}
	o.Role = overlay.RoleRelay
	return o
}

// waitTreeConverged blocks until every channel is connected to exactly its
// topology-desired neighbor set.
func waitTreeConverged(t *testing.T, chans []*Channel, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, c := range chans {
			want, err := c.DesiredPeers()
			if err != nil {
				converged = false
				break
			}
			got := c.Peers()
			if len(got) != len(want) {
				converged = false
				break
			}
			for i := range got {
				if got[i] != want[i] {
					converged = false
					break
				}
			}
			if !converged {
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, c := range chans {
				want, _ := c.DesiredPeers()
				t.Logf("%v: peers=%v want=%v", c.id, c.Peers(), want)
			}
			t.Fatal("relay tree did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRelayTreeFloodDelivery is the overlay's core delivery contract: on a
// converged branching-2 tree of 7 members, every member's publish reaches
// every other member exactly once, while each publisher touches only its
// O(branching) tree neighbors directly.
func TestRelayTreeFloodDelivery(t *testing.T) {
	reg := newRegistry(t)
	const n = 7
	chans := make([]*Channel, n)
	logs := make([]*deliveryLog, n)
	for i := 0; i < n; i++ {
		logs[i] = newDeliveryLog()
		chans[i] = join(t, reg, "mon", fmt.Sprintf("node%d", i), treeOpts(2))
		chans[i].Subscribe(logs[i].handler)
	}
	waitTreeConverged(t, chans, 5*time.Second)

	for i := 0; i < n; i++ {
		want, err := chans[i].DesiredPeers()
		if err != nil {
			t.Fatal(err)
		}
		// Publisher-side flatness: accepted count is the neighbor count
		// (at most branching+1), not n-1.
		sent, err := chans[i].Publish([]byte{byte(i)}, PublishOpts{})
		if err != nil || sent != len(want) {
			t.Fatalf("node%d Publish = (%d, %v), want %d neighbors", i, sent, err, len(want))
		}
		if sent > 3 {
			t.Fatalf("node%d accepted %d direct sends, want <= branching+1 = 3", i, sent)
		}
	}
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for logs[i].total.Load() < int64(n-1) {
			if time.Now().After(deadline) {
				t.Fatalf("node%d saw %d events, want %d", i, logs[i].total.Load(), n-1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Let any stray duplicates land, then require exactly-once everywhere.
	time.Sleep(50 * time.Millisecond)
	relayedTotal := uint64(0)
	for i := 0; i < n; i++ {
		if d := logs[i].dups(); len(d) != 0 {
			t.Fatalf("node%d delivered duplicates: %v", i, d)
		}
		if got := logs[i].total.Load(); got != int64(n-1) {
			t.Fatalf("node%d received %d events, want exactly %d", i, got, n-1)
		}
		relayedTotal += chans[i].Stats().Relayed
	}
	// Interior members did real re-publish work: n publishes each reaching
	// n-1 members over trees with at most 3 direct sends per publisher means
	// most hops were relayed.
	if relayedTotal == 0 {
		t.Fatal("no member relayed anything; events cannot have traversed the tree")
	}
}

// TestRelaySlowHandlerOnInterior pins what an EventDriven handler on an
// interior relay costs its subtree, now that it runs in place on the reader
// that also forwards: a record is forwarded before the relay's own handlers
// see it, so a handler stuck on record k does not keep k from the children;
// the records behind k wait in the socket — delayed by the handler, not
// lost — and reach the children in order once it returns.
func TestRelaySlowHandlerOnInterior(t *testing.T) {
	reg := newRegistry(t)
	// Sorted branching-2 tree: node0 is the root, node1 the interior relay
	// under test, node3 its only child.
	chans := make([]*Channel, 4)
	for i := range chans {
		chans[i] = join(t, reg, "mon", fmt.Sprintf("node%d", i), treeOpts(2))
	}
	root, interior, leaf := chans[0], chans[1], chans[3]
	release := make(chan struct{})
	var stuck sync.Once
	interior.Subscribe(func(Event) {
		stuck.Do(func() { <-release }) // the first event's handler hangs
	})
	var next atomic.Uint64 // highest seq the leaf has seen; must arrive in order
	leaf.Subscribe(func(ev Event) {
		if ev.From == "node0" && !next.CompareAndSwap(ev.Seq-1, ev.Seq) {
			t.Errorf("leaf got seq %d after %d", ev.Seq, next.Load())
		}
	})
	waitTreeConverged(t, chans, 5*time.Second)
	waitSeq := func(want uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for next.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: leaf at seq %d, want %d", what, next.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const n = 500 // fewer than an outbox holds: nothing may be dropped
	if _, err := root.Publish([]byte("first"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitSeq(1, "interior's handler is stuck on the record it already forwarded")
	for i := 1; i < n; i++ {
		if _, err := root.Publish([]byte("behind"), PublishOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := next.Load(); got != 1 {
		t.Fatalf("leaf at seq %d while the interior's reader is stuck in a handler, want 1", got)
	}
	close(release)
	waitSeq(n, "after the handler returned")
	for _, c := range chans {
		if s := c.Stats(); s.QueueDrops != 0 || s.Dropped != 0 || s.RelayDups != 0 {
			t.Fatalf("%s: drops %d, inbox drops %d, relay dups %d; want none", c.id, s.QueueDrops, s.Dropped, s.RelayDups)
		}
	}
}

// TestRelayInteriorKillReparent is the churn acceptance test: an interior
// relay is crashed mid-publish, the registry TTL ages it out, and the
// survivors re-parent onto the tree over the remaining roster. Records
// accepted after the heal must reach every survivor exactly once, no record
// may ever be delivered twice, and the publisher's enqueue-time books
// (accepted == EventsSent, losses in QueueDrops) must stay balanced
// throughout.
func TestRelayInteriorKillReparent(t *testing.T) {
	f := faultnet.NewFabric(31)
	ln, err := wire.TCP{}.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.NewServerWith(ln, registry.ServerOptions{TTL: 150 * time.Millisecond})
	defer reg.Close()

	// Branching-2 tree over node0..node6 (all relay-capable, so layout is ID
	// order): node0 is the root, node2 the interior parent of node5/node6.
	const n = 7
	chans := make([]*Channel, n)
	logs := make([]*deliveryLog, n)
	for i := 0; i < n; i++ {
		logs[i] = newDeliveryLog()
		c, _ := joinFault(t, f, reg.Addr(), "mon", fmt.Sprintf("node%d", i), treeOpts(2))
		chans[i] = c
		chans[i].Subscribe(logs[i].handler)
	}
	waitTreeConverged(t, chans, 5*time.Second)

	// node3 (a leaf under node1) publishes continuously while the fault is
	// injected; every record it publishes is logged with its accepted count.
	pub := chans[3]
	var accepted atomic.Uint64
	var published atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sent, err := pub.Publish([]byte{byte(i)}, PublishOpts{})
			if err != nil {
				return
			}
			accepted.Add(uint64(sent))
			published.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Wait until the flood is demonstrably flowing through node2's subtree.
	deadline := time.Now().Add(5 * time.Second)
	for logs[5].total.Load() == 0 || logs[6].total.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pre-fault flood never reached the node2 subtree")
		}
		time.Sleep(time.Millisecond)
	}

	// Crash the interior relay mid-publish: all its connections die and its
	// heartbeats stop, so the TTL ages it out of the roster.
	f.Crash("node2")
	chans[2].Close()

	// Survivors re-parent. Wait until a record published after the heal
	// window reaches every survivor, then stop the publisher.
	survivors := []int{0, 1, 4, 5, 6}
	deadline = time.Now().Add(10 * time.Second)
	var probeSeq uint64
	for probeSeq == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no post-crash record reached all survivors: totals=%v,%v,%v,%v,%v reconnects=%d",
				logs[0].total.Load(), logs[1].total.Load(), logs[4].total.Load(),
				logs[5].total.Load(), logs[6].total.Load(), pub.Stats().Reconnects)
		}
		// The publisher's sequence counter is also its record seq; any seq
		// published from now on postdates the crash.
		candidate := pub.seq.Load() + 2
		for pub.seq.Load() < candidate {
			time.Sleep(time.Millisecond)
		}
		all := true
		settle := time.Now().Add(2 * time.Second)
		for all && time.Now().Before(settle) {
			done := true
			for _, s := range survivors {
				if logs[s].count("node3", candidate) == 0 {
					done = false
					break
				}
			}
			if done {
				probeSeq = candidate
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	// Drain in-flight records, then check the books.
	time.Sleep(100 * time.Millisecond)

	// 1. Exactly-once: no survivor ever saw any (origin, seq) twice, even
	//    while re-parenting created transient redundant paths.
	for _, s := range survivors {
		if d := logs[s].dups(); len(d) != 0 {
			t.Fatalf("node%d delivered duplicates during re-parenting: %v", s, d)
		}
	}
	// 2. The post-heal probe record reached every survivor exactly once.
	for _, s := range survivors {
		if got := logs[s].count("node3", probeSeq); got != 1 {
			t.Fatalf("node%d saw probe seq %d %d times, want exactly once", s, probeSeq, got)
		}
	}
	// 3. Publisher books: every accepted record is in EventsSent (node3
	//    publishes only — it relays nothing of its own), and nothing leaked
	//    outside EventsSent/QueueDrops.
	st := pub.Stats()
	if st.EventsSent-st.Relayed != accepted.Load() {
		t.Fatalf("publisher books: EventsSent=%d Relayed=%d, accepted=%d",
			st.EventsSent, st.Relayed, accepted.Load())
	}
	// 4. The dedup gate, not luck, is what kept delivery single: transient
	//    double-paths during re-parenting are expected to have been suppressed
	//    (this is advisory — zero is legal on a fast heal — but the counters
	//    must at least be readable and consistent).
	var relayDups uint64
	for _, s := range survivors {
		relayDups += chans[s].Stats().RelayDups
	}
	t.Logf("published=%d accepted=%d probeSeq=%d relayDups=%d queueDrops=%d",
		published.Load(), accepted.Load(), probeSeq, st.QueueDrops, relayDups)
}

// TestRelayHopBoundStopsLoops pins the TTL backstop: a record arriving at
// the topology's hop limit is delivered but not forwarded, so even a
// transiently cyclic peering cannot circulate records forever.
func TestRelayHopBoundStopsLoops(t *testing.T) {
	reg := newRegistry(t)
	// Root + two leaves, branching 2: the root relays between the leaves.
	opts := func() *Options {
		o := treeOpts(2)
		o.DisableReconnect = true
		return o
	}
	root := join(t, reg, "mon", "aa-root", opts())
	leafLog := newDeliveryLog()
	leaf := join(t, reg, "mon", "bb-leaf", opts())
	leaf.Subscribe(leafLog.handler)
	cc := join(t, reg, "mon", "cc-leaf", opts())
	_ = cc
	if !root.WaitForPeers(2, 2*time.Second) || !leaf.WaitForPeers(1, 2*time.Second) {
		t.Fatal("tree did not form")
	}

	// Hand-craft a record that arrives at the root already at the hop bound.
	record := wire.AppendString(nil, "zz-origin")
	record = binary.BigEndian.AppendUint64(record, 1)
	record = wire.AppendBytesField(record, []byte("capped"))
	record = wire.AppendHopExt(record, uint8(root.maxHops))

	root.mu.Lock()
	var src *peer
	for _, p := range root.peers {
		if p.id == "cc-leaf" {
			src = p
		}
	}
	root.mu.Unlock()
	if src == nil {
		t.Fatal("root has no cc-leaf peer")
	}
	before := root.Stats().Relayed
	root.handleFrame(src, frameEvent, record, nil)
	if got := root.Stats().Relayed - before; got != 0 {
		t.Fatalf("root relayed %d copies of a hop-capped record, want 0", got)
	}
	// The record itself is still delivered locally (the bound caps the
	// forwarding radius, not delivery at the member it reached).
	root.Poll()
	if root.Stats().EventsRecv == 0 {
		t.Fatal("hop-capped record was not delivered at the receiving member")
	}
	// A record below the bound is forwarded to the other leaf.
	record2 := wire.AppendString(nil, "zz-origin")
	record2 = binary.BigEndian.AppendUint64(record2, 2)
	record2 = wire.AppendBytesField(record2, []byte("fresh"))
	record2 = wire.AppendHopExt(record2, 0)
	root.handleFrame(src, frameEvent, record2, nil)
	deadline := time.Now().Add(2 * time.Second)
	for leafLog.count("zz-origin", 2) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-bound record was not forwarded")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkRelayForward measures the interior-member re-publish path in
// isolation — receive a hop-stamped record, dedup-admit it, increment the
// hop byte in place, enqueue on the downstream outbox — the path the
// allocgate holds at zero allocations.
func BenchmarkRelayForward(b *testing.B) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	mk := func(id string) *Channel {
		cli := registry.NewClient(reg.Addr())
		o := &Options{
			Dispatch:         EventDriven,
			DisableReconnect: true,
			Topology:         overlay.RelayTree{Branching: 2},
			Role:             overlay.RoleRelay,
		}
		c, err := Join(cli, "mon", id, o)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close(); cli.Close() })
		return c
	}
	// Layout [aa-relay bb-leaf cc-leaf]: aa-relay is the root connected to
	// both leaves.
	relay := mk("aa-relay")
	mk("bb-leaf")
	mk("cc-leaf")
	if !relay.WaitForPeers(2, 2*time.Second) {
		b.Fatal("tree did not form")
	}
	relay.mu.Lock()
	src := relay.peers["bb-leaf"]
	relay.mu.Unlock()
	if src == nil {
		b.Fatal("relay has no bb-leaf peer")
	}

	// One pre-encoded record; the per-iteration seq patch keeps the dedup
	// gate admitting without re-encoding.
	origin := "zz-origin"
	record := wire.AppendString(nil, origin)
	seqOff := len(record)
	record = binary.BigEndian.AppendUint64(record, 0)
	record = wire.AppendBytesField(record, []byte("0123456789abcdef0123456789abcdef"))
	record = wire.AppendHopExt(record, 0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(record[seqOff:], uint64(i+1))
		record[len(record)-1] = 0 // reset the in-place hop rewrite
		relay.handleFrame(src, frameEvent, record, nil)
	}
	b.StopTimer()
}

// TestRelayTreeSteadyState pins the overlay at rest, at a size where an
// interior member has interior children: 16 members on a branching-2 tree
// with the supervisors running. Once the tree has formed, every member holds
// exactly its tree edges, and a stream from the root reaches every other
// member exactly once with nothing suppressed and nothing dropped.
func TestRelayTreeSteadyState(t *testing.T) {
	reg := newRegistry(t)
	const n, events, burst = 16, 3000, 200
	chans := make([]*Channel, n)
	logs := make([]*deliveryLog, n)
	for i := range chans {
		logs[i] = newDeliveryLog()
		chans[i] = join(t, reg, "mon", fmt.Sprintf("node%02d", i), treeOpts(2))
		chans[i].Subscribe(logs[i].handler)
	}
	waitTreeConverged(t, chans, 10*time.Second)

	// Closed loop, a burst at a time, so that no outbox (1024 deep) can
	// overflow however the scheduler treats the relays.
	root := chans[0]
	for sent := 0; sent < events; {
		for i := 0; i < burst; i, sent = i+1, sent+1 {
			if _, err := root.Publish([]byte{byte(sent)}, PublishOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for i := 1; i < n; i++ {
			for logs[i].total.Load() < int64(sent) {
				if time.Now().After(deadline) {
					t.Fatalf("%s saw %d of %d events", chans[i].id, logs[i].total.Load(), sent)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	time.Sleep(50 * time.Millisecond) // let any stray duplicate land
	for i, c := range chans {
		want := int64(events)
		if i == 0 {
			want = 0 // nothing loops back to the publisher
		}
		if got := logs[i].total.Load(); got != want || len(logs[i].dups()) != 0 {
			t.Fatalf("%s delivered %d events (%d more than once), want %d exactly once",
				c.id, got, len(logs[i].dups()), want)
		}
		if s := c.Stats(); s.RelayDups != 0 || s.QueueDrops != 0 {
			t.Fatalf("%s: relay dups %d, queue drops %d on a converged tree; want none", c.id, s.RelayDups, s.QueueDrops)
		}
	}
	waitTreeConverged(t, chans, time.Second) // and the tree is still the tree
}

// TestMixedTopologies pins the receive gate keying on the record, not on the
// receiver's configuration. A full-mesh member on a channel with relay-tree
// members treats a hop-stamped record as overlay traffic — deduplicated,
// never forwarded — and a tree member treats a trailer-free SubmitTo record
// as point-to-point: delivered, never re-published.
func TestMixedTopologies(t *testing.T) {
	reg := newRegistry(t)
	event := func() *Options { return &Options{DisableReconnect: true, Dispatch: EventDriven} }
	tree := func() *Options {
		o := treeOpts(2)
		o.DisableReconnect = true
		return o
	}
	waitTotal := func(l *deliveryLog, want int64, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for l.total.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d deliveries, want %d", what, l.total.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// aa-flat and cc-flat are full-mesh members, bb-tree publishes with a hop
	// trailer. Join-time dials connect all three pairwise.
	flatLog, otherLog := newDeliveryLog(), newDeliveryLog()
	flat := join(t, reg, "mixed", "aa-flat", event())
	flat.Subscribe(flatLog.handler)
	pub := join(t, reg, "mixed", "bb-tree", tree())
	other := join(t, reg, "mixed", "cc-flat", event())
	other.Subscribe(otherLog.handler)
	if !flat.WaitForPeers(2, 2*time.Second) || !pub.WaitForPeers(2, 2*time.Second) {
		t.Fatalf("mixed mesh did not form: flat %v, tree %v", flat.Peers(), pub.Peers())
	}
	if _, err := pub.Publish([]byte("stamped"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitTotal(flatLog, 1, "hop-stamped record at the full-mesh member")
	waitTotal(otherLog, 1, "hop-stamped record at the other full-mesh member")
	// The same record again, as a redundant path would deliver it.
	record := wire.AppendString(nil, "bb-tree")
	record = binary.BigEndian.AppendUint64(record, 1)
	record = wire.AppendBytesField(record, []byte("stamped"))
	record = wire.AppendHopExt(record, 0)
	flat.mu.Lock()
	src := flat.peers["bb-tree"]
	flat.mu.Unlock()
	if _, err := flat.handleFrame(src, frameEvent, record, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if s := flat.Stats(); flatLog.count("bb-tree", 1) != 1 || s.RelayDups != 1 || s.Relayed != 0 || s.EventsSent != 0 {
		t.Fatalf("full-mesh member: delivered %d times, relay dups %d, relayed %d, sent %d; want 1, 1, 0, 0",
			flatLog.count("bb-tree", 1), s.RelayDups, s.Relayed, s.EventsSent)
	}
	if got := otherLog.total.Load(); got != 1 {
		t.Fatalf("cc-flat saw %d events, want 1: the full-mesh member forwarded", got)
	}

	// A tree of three: a SubmitTo from one leaf stops at the root; a Publish
	// from the same leaf is forwarded to the other.
	rootLog, leafLog := newDeliveryLog(), newDeliveryLog()
	root := join(t, reg, "tree", "aa-root", tree())
	root.Subscribe(rootLog.handler)
	from := join(t, reg, "tree", "bb-leaf", tree())
	leaf := join(t, reg, "tree", "cc-leaf", tree())
	leaf.Subscribe(leafLog.handler)
	if !root.WaitForPeers(2, 2*time.Second) {
		t.Fatal("tree did not form")
	}
	if err := from.SubmitTo("aa-root", []byte("targeted")); err != nil {
		t.Fatal(err)
	}
	waitTotal(rootLog, 1, "SubmitTo record at the root")
	if _, err := from.Publish([]byte("broadcast"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitTotal(leafLog, 1, "published record at the other leaf")
	time.Sleep(50 * time.Millisecond)
	if got, relayed := leafLog.total.Load(), root.Stats().Relayed; got != 1 || relayed != 1 {
		t.Fatalf("other leaf saw %d events, root relayed %d; want 1 and 1 (the Publish only)", got, relayed)
	}
}
