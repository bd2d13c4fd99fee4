package kecho

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRetainedPayloadObservesRecycling pins the Event.Payload ownership
// contract (DESIGN.md §8): a handler that keeps the slice past its own
// return holds a loan on its frame's arena, and the deterministic LIFO
// freelist guarantees the very next frame reuses that arena and overwrites
// it — so the violation is caught, not silently tolerated. Until the Poll
// that dispatched the frame returns, the arena is not reused, even by a
// frame queued meanwhile. A copy taken during the handler call is the
// sanctioned way to keep the bytes and must survive unscathed.
func TestRetainedPayloadObservesRecycling(t *testing.T) {
	sub := newTestChannel(Options{})
	src := &peer{id: "pub"}
	receive := func(seq uint64, body string) {
		t.Helper()
		if _, err := sub.handleFrame(src, frameEvent, testRecord("pub", seq, []byte(body)), nil); err != nil {
			t.Fatal(err)
		}
	}
	var retained, copied []byte
	sub.Subscribe(func(ev Event) {
		if ev.Seq == 1 {
			retained = ev.Payload                       // contract violation: kept past return
			copied = append([]byte(nil), ev.Payload...) // the documented way to keep the bytes
			// A frame arriving mid-Poll draws a fresh arena.
			receive(2, "while-loaned!!")
		}
	})

	receive(1, "first-payload!")
	if n := sub.Poll(); n != 1 {
		t.Fatalf("Poll = %d, want 1", n)
	}
	if string(retained) != "first-payload!" {
		t.Fatalf("retained slice reads %q while its arena was still loaned", retained)
	}
	// Poll returned frame 1's arena to the freelist; the next frame pops it
	// (LIFO) and its body lands where the retained one was.
	receive(3, "third-event!!!")
	if string(retained) != "third-event!!!" {
		t.Fatalf("retained slice reads %q; recycling contract not enforced — "+
			"a leaked reference would go unnoticed", retained)
	}
	if string(copied) != "first-payload!" {
		t.Fatalf("copied payload corrupted: %q", copied)
	}
	if n := sub.Poll(); n != 2 {
		t.Fatalf("Poll = %d, want the 2 frames queued since", n)
	}
}

// TestPayloadValidDuringHandlerCall pins the other half of the contract:
// within the handler call the payload is always intact, for both dispatch
// modes — a copy in a pooled buffer (Polled) or a view of the connection's
// receive buffer (EventDriven).
func TestPayloadValidDuringHandlerCall(t *testing.T) {
	for _, mode := range []DispatchMode{Polled, EventDriven} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := newRegistry(t)
			pub := join(t, reg, "own2", "pub", nil)
			sub := join(t, reg, "own2", "sub", &Options{Dispatch: mode})
			if !pub.WaitForPeers(1, time.Second) || !sub.WaitForPeers(1, time.Second) {
				t.Fatal("mesh did not form")
			}
			var got atomic.Int64
			var bad atomic.Int64
			sub.Subscribe(func(ev Event) {
				if string(ev.Payload) != "in-call-bytes" {
					bad.Add(1)
				}
				got.Add(1)
			})
			for i := 0; i < 50; i++ {
				if _, err := pub.Publish([]byte("in-call-bytes"), PublishOpts{}); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for got.Load() < 50 {
				if mode == Polled {
					sub.Poll()
				}
				if time.Now().After(deadline) {
					t.Fatalf("saw %d events, want 50", got.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if bad.Load() != 0 {
				t.Fatalf("%d events had corrupt payloads during handler dispatch", bad.Load())
			}
		})
	}
}
