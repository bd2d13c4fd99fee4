package kecho

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/wire"
)

// newTestChannel is a channel with no listener, registry or peers: frames
// reach it only through handleFrame, on the caller's goroutine.
func newTestChannel(o Options) *Channel {
	return newChannel("mon", "self", o.withDefaults())
}

// testRecord encodes one event record as Publish does, without trailers.
func testRecord(from string, seq uint64, body []byte) []byte {
	rec := wire.AppendString(nil, from)
	rec = binary.BigEndian.AppendUint64(rec, seq)
	return wire.AppendBytesField(rec, body)
}

// testBody is the size-byte body of record seq.
func testBody(seq uint64, size int) []byte {
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(seq) + byte(i)
	}
	return body
}

// testBatch is a batch frame of n records from "pub" with seqs first, …,
// first+n-1 and size-byte testBody bodies.
func testBatch(first uint64, n, size int) []byte {
	records := make([][]byte, n)
	for i := range records {
		seq := first + uint64(i)
		records[i] = testRecord("pub", seq, testBody(seq, size))
	}
	return wire.EncodeBatch(records)
}

// countingClock counts Now calls.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestReceiveCountsPerFrame pins the polled receive path's per-frame costs
// as counts: a 64-record batch frame reads the clock once, lands in the
// inbox whole, comes out of one Poll in order with every payload intact,
// and — in steady state — allocates nothing, at 64 B and at 5 KiB a record.
func TestReceiveCountsPerFrame(t *testing.T) {
	clk := &countingClock{Clock: clock.NewReal()}
	c := newTestChannel(Options{Clock: clk})
	src := &peer{id: "pub"}
	var seqs []uint64
	var stamps []time.Time
	c.Subscribe(func(ev Event) {
		seqs = append(seqs, ev.Seq)
		stamps = append(stamps, ev.Recv)
		if ev.From != "pub" || !bytes.Equal(ev.Payload, testBody(ev.Seq, 64)) {
			t.Errorf("seq %d: from %q, payload %x", ev.Seq, ev.From, ev.Payload)
		}
		if cap(ev.Payload) != len(ev.Payload) {
			t.Errorf("seq %d: payload cap %d > len %d: an append would overwrite the next body",
				ev.Seq, cap(ev.Payload), len(ev.Payload))
		}
	})
	if _, err := c.handleFrame(src, frameBatch, testBatch(1, 64, 64), nil); err != nil {
		t.Fatal(err)
	}
	if n := clk.reads.Load(); n != 1 {
		t.Fatalf("%d clock reads for one untraced 64-record frame, want 1", n)
	}
	if n := c.Pending(); n != 64 {
		t.Fatalf("Pending = %d, want 64", n)
	}
	if n := c.Poll(); n != 64 {
		t.Fatalf("Poll = %d, want 64", n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) || !stamps[i].Equal(stamps[0]) {
			t.Fatalf("event %d: seq %d, Recv %v; want seq %d, the frame's stamp %v", i, s, stamps[i], i+1, stamps[0])
		}
	}
	if len(seqs) != 64 {
		t.Fatalf("%d events dispatched, want 64", len(seqs))
	}

	for _, size := range []int{64, 5 << 10} {
		c := newTestChannel(Options{})
		c.Subscribe(func(Event) {})
		frame := testBatch(1, 64, size)
		var batch [][]byte
		round := func() {
			batch, _ = c.handleFrame(src, frameBatch, frame, batch)
			if n := c.Poll(); n != 64 {
				t.Fatalf("Poll = %d, want 64", n)
			}
		}
		round() // the arena, its chunks and the queue's arrays reach size
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("%d-byte records: handleFrame + Poll allocates %.2f times per frame, want 0", size, allocs)
		}
	}
}

// TestInboxOverflowKeepsFramePrefix pins the overflow rule: a frame that
// arrives with less room than it has records keeps its first records, in
// order, and drops the rest, counted.
func TestInboxOverflowKeepsFramePrefix(t *testing.T) {
	c := newTestChannel(Options{InboxSize: 4})
	var seqs []uint64
	c.Subscribe(func(ev Event) { seqs = append(seqs, ev.Seq) })
	if _, err := c.handleFrame(&peer{id: "pub"}, frameBatch, testBatch(1, 10, 8), nil); err != nil {
		t.Fatal(err)
	}
	if p, s := c.Pending(), c.Stats(); p != 4 || s.Dropped != 6 || s.EventsRecv != 10 {
		t.Fatalf("Pending %d, Dropped %d, EventsRecv %d; want 4, 6, 10", p, s.Dropped, s.EventsRecv)
	}
	if n := c.Poll(); n != 4 || !slices.Equal(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("Poll = %d delivering %v; want 4 delivering [1 2 3 4]", n, seqs)
	}
}

// TestPollFromHandler pins Poll's re-entrancy: a handler that polls its own
// channel gets only what arrived since the outer Poll took the queue —
// no deadlock, nothing delivered twice.
func TestPollFromHandler(t *testing.T) {
	c := newTestChannel(Options{})
	src := &peer{id: "pub"}
	var seqs []uint64
	inner := -1
	c.Subscribe(func(ev Event) {
		seqs = append(seqs, ev.Seq)
		if ev.Seq == 1 {
			if _, err := c.handleFrame(src, frameBatch, testBatch(4, 2, 8), nil); err != nil {
				t.Error(err)
			}
			inner = c.Poll()
		}
	})
	if _, err := c.handleFrame(src, frameBatch, testBatch(1, 3, 8), nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() { done <- c.Poll() }()
	select {
	case outer := <-done:
		if outer != 3 || inner != 2 || !slices.Equal(seqs, []uint64{1, 4, 5, 2, 3}) {
			t.Fatalf("outer Poll %d, inner %d, delivered %v; want 3, 2, [1 4 5 2 3]", outer, inner, seqs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Poll from a handler deadlocked")
	}
	if n := c.Poll(); n != 0 || c.Pending() != 0 {
		t.Fatalf("Poll = %d, Pending = %d after the drain; want 0, 0", n, c.Pending())
	}
}

// TestConcurrentPollsDeliverOnce runs two pollers against one reader:
// every event is dispatched exactly once (and, under -race, the swap, the
// freelist and the arenas' hand-offs are clean).
func TestConcurrentPollsDeliverOnce(t *testing.T) {
	c := newTestChannel(Options{})
	var mu sync.Mutex
	seen := make(map[uint64]int)
	c.Subscribe(func(ev Event) {
		if !bytes.Equal(ev.Payload, testBody(ev.Seq, 16)) {
			t.Errorf("seq %d: payload %x", ev.Seq, ev.Payload)
		}
		mu.Lock()
		seen[ev.Seq]++
		mu.Unlock()
	})
	const frames, per = 300, 8
	var fed atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !fed.Load() || c.Pending() > 0 {
				c.Poll()
			}
		}()
	}
	src := &peer{id: "pub"}
	var batch [][]byte
	for i := 0; i < frames; i++ {
		var err error
		if batch, err = c.handleFrame(src, frameBatch, testBatch(uint64(i*per+1), per, 16), batch); err != nil {
			t.Fatal(err)
		}
	}
	fed.Store(true)
	wg.Wait()
	if len(seen) != frames*per {
		t.Fatalf("%d distinct events delivered, want %d", len(seen), frames*per)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	if d := c.Stats().Dropped; d != 0 {
		t.Fatalf("Dropped = %d", d)
	}
}

// TestSubscribeRacesDispatch subscribes while frames are being dispatched,
// in both modes: the handler list is published copy-on-write and loaded
// without the channel lock, which -race checks here.
func TestSubscribeRacesDispatch(t *testing.T) {
	for _, mode := range []DispatchMode{Polled, EventDriven} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestChannel(Options{Dispatch: mode})
			var first atomic.Int64
			c.Subscribe(func(Event) { first.Add(1) })
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					c.Subscribe(func(Event) {})
				}
			}()
			src := &peer{id: "pub"}
			for seq := uint64(1); seq <= 200; seq++ {
				if _, err := c.handleFrame(src, frameEvent, testRecord("pub", seq, []byte{1}), nil); err != nil {
					t.Fatal(err)
				}
				c.Poll()
			}
			wg.Wait()
			if n := first.Load(); n != 200 {
				t.Fatalf("first handler saw %d events, want 200", n)
			}
		})
	}
}

// fuzzEvent is what a handler saw of one delivered event.
type fuzzEvent struct {
	from string
	seq  uint64
	body string
}

// expectFrame is the oracle for FuzzHandleFrame: it decodes a frame payload
// with plain wire.Decoder calls, independently of the receive path, and
// applies the receive gate's rules by hand — a hop-stamped record from self
// or at or below its origin's highest admitted seq is suppressed, and a
// record without the hop trailer that names a publisher other than peer is
// refused. It returns the events a member named self must deliver from peer,
// how many records it refuses, and whether the frame is malformed; want
// then holds the records ahead of the bad one.
func expectFrame(self, peer string, typ uint8, payload []byte) (want []fuzzEvent, refused uint64, bad bool) {
	records := [][]byte{payload}
	if typ == frameBatch {
		d := wire.NewDecoder(payload)
		n := d.Uint32()
		if d.Err() != nil || int64(n)*4 > int64(d.Remaining()) {
			return nil, 0, true
		}
		records = records[:0]
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			records = append(records, d.BytesField())
		}
		if d.Finish() != nil {
			return nil, 0, true
		}
	}
	last := make(map[string]uint64)
	for _, rec := range records {
		d := wire.NewDecoder(rec)
		from := d.String()
		seq := d.Uint64()
		body := d.BytesField()
		hopped := false
		if d.Remaining() > 0 {
			_, hopped = d.HopExt()
			d.TraceExt()
		}
		if d.Finish() != nil {
			return want, refused, true
		}
		if hopped {
			if from == self || seq <= last[from] {
				continue
			}
			last[from] = seq
		} else if from != peer {
			refused++
			continue
		}
		want = append(want, fuzzEvent{from, seq, string(body)})
	}
	return want, refused, false
}

// FuzzHandleFrame feeds any bytes as an event or batch frame to a polled and
// an event-driven channel. The receive path must never panic, must deliver
// exactly the records the independent decode says it should — bodies byte
// for byte, hop and trace trailers consumed, relay duplicates suppressed,
// un-relayed records from anyone but the peer refused — and count them in
// EventsRecv and WrongOrigin; on a malformed frame it must have delivered
// the records ahead of the bad one and none after it.
func FuzzHandleFrame(f *testing.F) {
	rec := func(from string, seq uint64, body string, hop bool, traceID uint64) []byte {
		r := testRecord(from, seq, []byte(body))
		if hop {
			r = wire.AppendHopExt(r, 1)
		}
		if traceID != 0 {
			r = wire.AppendTraceExt(r, traceID, 1_000_000)
		}
		return r
	}
	plain := rec("pub", 1, "plain", false, 0)
	hopped := rec("origin", 7, "hopped", true, 0)
	both := rec("origin", 8, "hop and trace", true, 99)
	traced := rec("pub", 2, "traced", false, 42)
	f.Add(frameEvent, plain)
	f.Add(frameEvent, hopped)
	f.Add(frameEvent, both)
	f.Add(frameEvent, traced)
	f.Add(frameEvent, rec("", 1, "relayed from an empty origin", true, 0))
	f.Add(frameBatch, wire.EncodeBatch([][]byte{
		plain, hopped, both, traced,
		rec("origin", 7, "duplicate", true, 0),
		rec("self", 3, "looped back", true, 0),
		rec("origin", 9, "not relayed", false, 0),
	}))
	f.Add(frameBatch, wire.EncodeBatch([][]byte{plain, both[:len(both)-3], traced}))
	f.Add(frameBatch, wire.EncodeBatch(nil))

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		typ = frameEvent + typ%2
		want, refused, bad := expectFrame("self", "pub", typ, payload)
		for _, mode := range []DispatchMode{Polled, EventDriven} {
			// Every record is at least 16 bytes: this inbox cannot overflow.
			c := newTestChannel(Options{Dispatch: mode, InboxSize: len(payload) + 1})
			var got []fuzzEvent
			c.Subscribe(func(ev Event) { got = append(got, fuzzEvent{ev.From, ev.Seq, string(ev.Payload)}) })
			_, err := c.handleFrame(&peer{id: "pub"}, typ, payload, nil)
			c.Poll()
			if (err != nil) != bad {
				t.Fatalf("%v: handleFrame error %v, oracle says malformed=%v", mode, err, bad)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v: delivered %v, want %v", mode, got, want)
			}
			if s := c.Stats(); s.EventsRecv != uint64(len(want)) || s.Dropped != 0 || s.WrongOrigin != refused {
				t.Fatalf("%v: EventsRecv %d, Dropped %d, WrongOrigin %d; want %d, 0, %d",
					mode, s.EventsRecv, s.Dropped, s.WrongOrigin, len(want), refused)
			}
		}
	})
}

// BenchmarkPolledReceive is the polled receive path alone: one 64-record
// batch frame through handleFrame — decode, gate, copy into the frame's
// arena, queue — and the Poll that dispatches it to one empty handler.
// `make allocgate` holds both record sizes at 0 allocs/op.
func BenchmarkPolledReceive(b *testing.B) {
	for _, size := range []int{64, 5 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			c := newTestChannel(Options{})
			c.Subscribe(func(Event) {})
			src := &peer{id: "pub"}
			frame := testBatch(1, 64, size)
			var batch [][]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, _ = c.handleFrame(src, frameBatch, frame, batch)
				c.Poll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/event")
		})
	}
}
