package kecho

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetainedPayloadObservesRecycling pins the Event.Payload ownership
// contract (DESIGN.md §8): a handler that keeps the slice past its own
// return holds a loaned pooled buffer, and the deterministic LIFO freelist
// guarantees the very next same-size event overwrites it — so the violation
// is caught, not silently tolerated. CopyPayload is the sanctioned escape
// hatch and must survive unscathed.
func TestRetainedPayloadObservesRecycling(t *testing.T) {
	reg := newRegistry(t)
	pub := join(t, reg, "own", "pub", nil)
	sub := join(t, reg, "own", "sub", nil)
	if !pub.WaitForPeers(1, time.Second) || !sub.WaitForPeers(1, time.Second) {
		t.Fatal("mesh did not form")
	}

	var got atomic.Int64
	var mu sync.Mutex
	var retained, copied []byte
	sub.Subscribe(func(ev Event) {
		if got.Add(1) == 1 {
			mu.Lock()
			retained = ev.Payload     // contract violation: kept past return
			copied = ev.CopyPayload() // the documented way to keep the bytes
			mu.Unlock()
		}
	})

	if _, err := pub.Publish([]byte("first-payload!"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, sub, &got, 1)

	// Poll returned the buffer to the freelist; an equal-size follow-up event
	// must reuse it (LIFO), clobbering the retained slice. Note the retained
	// bytes are deliberately not inspected before this point: a read here
	// would race with the incoming copy — under -race, exactly the bug the
	// contract describes. The handler's in-call copy already proved the
	// bytes were intact pre-recycling.
	if _, err := pub.Publish([]byte("second-event!!"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	waitForEvents(t, sub, &got, 2)

	mu.Lock()
	defer mu.Unlock()
	if string(retained) != "second-event!!" {
		t.Fatalf("retained slice reads %q; recycling contract not enforced — "+
			"a leaked reference would go unnoticed", retained)
	}
	if string(copied) != "first-payload!" {
		t.Fatalf("CopyPayload corrupted: %q", copied)
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
