package kecho

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/obs"
)

// TestTraceContinuityAcrossReconnect proves the tracing satellite end to end:
// with sampling forced to every event, trace IDs stamped by the publisher
// survive the wire, arrive on the subscriber, and keep flowing after a
// faultnet-severed connection self-heals. The subscriber's observer must show
// propagation-delay observations and propagate-stage spans carrying the
// publisher's trace-ID prefix both before and after the reconnect.
func TestTraceContinuityAcrossReconnect(t *testing.T) {
	f := faultnet.NewFabric(11)
	reg := newRegistry(t)

	pubObs := obs.New("alan", nil, 1) // sample every event
	subObs := obs.New("maui", nil, 1)
	optsA := fastHeal()
	optsA.Observer = pubObs
	optsB := fastHeal()
	optsB.Observer = subObs

	a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", optsA)
	b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", optsB)
	if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}

	var mu sync.Mutex
	var tids []uint64
	var got atomic.Int64
	b.Subscribe(func(ev Event) {
		mu.Lock()
		tids = append(tids, ev.TraceID)
		mu.Unlock()
		got.Add(1)
	})

	if _, err := a.Publish([]byte("before"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, b, &got, 1)
	preDelays := subObs.PropDelay.Count()
	if preDelays < 1 {
		t.Fatalf("no propagation delay recorded before the cut (count %d)", preDelays)
	}

	if n := f.Sever("alan", "maui"); n < 1 {
		t.Fatalf("Sever killed %d conns, want >= 1", n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not self-heal: reconnects=%d",
				a.Stats().Reconnects+b.Stats().Reconnects)
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

	// Every delivered event carried a publisher-stamped trace ID, and the IDs
	// on both sides of the reconnect share the publisher's node prefix.
	mu.Lock()
	defer mu.Unlock()
	if len(tids) < 2 {
		t.Fatalf("delivered %d events, want >= 2", len(tids))
	}
	prefix := tids[0] >> 48
	for i, tid := range tids {
		if tid == 0 {
			t.Fatalf("event %d arrived without a trace ID", i)
		}
		if tid>>48 != prefix {
			t.Fatalf("event %d trace ID %016x lost the publisher prefix %04x", i, tid, prefix)
		}
	}

	// The subscriber kept measuring cross-node propagation after the heal.
	if post := subObs.PropDelay.Count(); post <= preDelays {
		t.Fatalf("propagation count did not advance across reconnect: %d -> %d", preDelays, post)
	}

	// And its span ring holds propagate-stage spans tied to those trace IDs.
	var propSpans int
	for _, sp := range subObs.Spans() {
		if sp.Stage == obs.StagePropagate && sp.TraceID>>48 == prefix {
			propSpans++
		}
	}
	if propSpans < 2 {
		t.Fatalf("subscriber recorded %d propagate spans with the publisher prefix, want >= 2", propSpans)
	}
}

// TestPublishTraceDecision pins the one entry point's trace decision: with
// nothing decided Publish samples through the observer, a decision already
// made is honoured — including "considered and not sampled" — and an
// explicit ID reaches the subscriber's Event.TraceID.
func TestPublishTraceDecision(t *testing.T) {
	reg := newRegistry(t)
	pubObs := obs.New("alan", nil, 1) // sample every event
	a := join(t, reg, "mon", "alan", &Options{Observer: pubObs})
	b := join(t, reg, "mon", "maui", &Options{Dispatch: EventDriven})
	if !a.WaitForPeers(1, time.Second) || !b.WaitForPeers(1, time.Second) {
		t.Fatal("mesh did not form")
	}
	got := make(chan uint64, 1)
	b.Subscribe(func(ev Event) { got <- ev.TraceID })
	for _, tc := range []struct {
		name  string
		opts  PublishOpts
		check func(tid uint64) bool
	}{
		{"zero opts samples via the observer", PublishOpts{}, func(tid uint64) bool { return tid != 0 }},
		{"Traced with ID 0 stays untraced", PublishOpts{Traced: true}, func(tid uint64) bool { return tid == 0 }},
		{"Traced with an ID carries it", PublishOpts{TraceID: 0xabcdef, Traced: true}, func(tid uint64) bool { return tid == 0xabcdef }},
		{"an ID alone carries it too", PublishOpts{TraceID: 0x1234}, func(tid uint64) bool { return tid == 0x1234 }},
	} {
		if _, err := a.Publish([]byte("x"), tc.opts); err != nil {
			t.Fatal(err)
		}
		select {
		case tid := <-got:
			if !tc.check(tid) {
				t.Errorf("%s: subscriber saw trace ID %#x", tc.name, tid)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: event not delivered", tc.name)
		}
	}
}
