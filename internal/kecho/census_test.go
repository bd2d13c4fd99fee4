package kecho

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/leakcheck"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// TestGoroutineCensus pins what the single receive pipeline costs: a Join
// adds exactly writers + accept loop + supervisor, every live peer
// connection adds exactly one reader at each end, and Close gives all of
// them back — the same on plain TCP and behind faultnet, since there is one
// reader implementation.
func TestGoroutineCensus(t *testing.T) {
	const writers, members = 3, 6
	fab := faultnet.NewFabric(1)
	for _, tc := range []struct {
		name      string
		transport func(id string) wire.Transport
	}{
		{"tcp", func(string) wire.Transport { return nil }},
		{"faultnet", func(id string) wire.Transport { return fab.Host(id) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newRegistry(t)
			// Connect the registry clients first: the in-process registry
			// server's goroutine per client belongs in the baseline.
			clients := make([]*registry.Client, members)
			for i := range clients {
				clients[i] = registry.NewClient(reg.Addr())
				defer clients[i].Close()
				// A Leave of a member that never joined is a round trip
				// that changes nothing.
				if err := clients[i].Leave("census", "nobody"); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			want := runtime.NumGoroutine()

			chans := make([]*Channel, members)
			for i := range chans {
				id := fmt.Sprintf("m%d", i)
				ch, err := Join(clients[i], "census", id, &Options{Writers: writers, Transport: tc.transport(id)})
				if err != nil {
					t.Fatal(err)
				}
				defer ch.Close()
				chans[i] = ch
				// The joiner dials the i members already there.
				want += writers + 2 + 2*i
				leakcheck.Goroutines(t, "after join of "+id, want, want)
			}
			for i := members - 1; i >= 0; i-- {
				chans[i].Close()
				want -= writers + 2 + 2*i
				leakcheck.Goroutines(t, fmt.Sprintf("after close of m%d", i), want, want)
			}
		})
	}
}

// TestEventDrivenDispatch pins the latency-floor mode: handlers run on frame
// receipt with no Poll, and Poll is a no-op.
func TestEventDrivenDispatch(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven})
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	done := make(chan Event, 1)
	b.Subscribe(func(ev Event) { done <- Event{From: ev.From, Payload: append([]byte(nil), ev.Payload...), Seq: ev.Seq} })
	if _, err := a.Publish([]byte("now"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-done:
		if string(ev.Payload) != "now" || ev.From != "a" {
			t.Fatalf("event = %q from %q", ev.Payload, ev.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event-driven dispatch did not deliver without Poll")
	}
	if n := b.Poll(); n != 0 {
		t.Fatalf("Poll = %d in EventDriven mode, want 0", n)
	}
}

// TestEventDrivenSerializedAndBackpressured pins the two properties in-place
// dispatch must keep: handler calls never overlap even with many submitting
// peers, and a slow handler holds events back (in the sockets and the
// publishers' outboxes) instead of dropping them locally.
func TestEventDrivenSerializedAndBackpressured(t *testing.T) {
	reg := newRegistry(t)
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven, InboxSize: 8})
	const pubs = 4
	chans := make([]*Channel, pubs)
	for i := 0; i < pubs; i++ {
		chans[i] = join(t, reg, "mon", fmt.Sprintf("pub%d", i), nil)
	}
	if !b.WaitForPeers(pubs, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var inHandler atomic.Int64
	var overlapped atomic.Bool
	var got atomic.Int64
	b.Subscribe(func(Event) {
		if inHandler.Add(1) != 1 {
			overlapped.Store(true)
		}
		time.Sleep(2 * time.Millisecond) // a slow handler
		inHandler.Add(-1)
		got.Add(1)
	})
	const per = 20
	for i := 0; i < per; i++ {
		for _, c := range chans {
			if _, err := c.Publish([]byte("x"), PublishOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(pubs * per)
	deadline := time.Now().Add(15 * time.Second)
	for got.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d", got.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if overlapped.Load() {
		t.Fatal("handler calls overlapped; EventDriven dispatch must be serialized")
	}
	if d := b.Stats().Dropped; d != 0 {
		t.Fatalf("receiver dropped %d events; slow handler must backpressure, not drop", d)
	}
}
