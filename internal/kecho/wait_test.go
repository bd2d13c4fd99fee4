package kecho

import (
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/faultnet"
	"dproc/internal/registry"
)

// holdUp is how long each wait below is held up by the fabric: long enough
// that a 1 ms poll would wake about that many times.
const holdUp = 30 * time.Millisecond

// TestWaitsWakeOnEvents holds each of kecho's waits up with faultnet and
// counts how often it woke: at most once per state change it observed, plus
// one. A wait that polled on 1 ms sleeps would wake about 30 times.
func TestWaitsWakeOnEvents(t *testing.T) {
	t.Run("WaitPeers", func(t *testing.T) {
		f := faultnet.NewFabric(71)
		reg := newRegistry(t)
		opts := func() *Options { return &Options{DisableReconnect: true} }
		b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
		// alan's hello to maui sleeps holdUp in the fabric, so maui hears of
		// alan that much after the connection opened.
		f.SetLatency("maui", holdUp, holdUp)
		before := b.Stats().PeerChanges
		evals := 0
		done := make(chan bool)
		start := time.Now()
		go func() {
			done <- b.WaitPeers(5*time.Second, func(peers []string) bool {
				evals++
				return len(peers) == 1
			})
		}()
		joinFault(t, f, reg.Addr(), "mon", "alan", opts())
		if !<-done {
			t.Fatal("WaitPeers timed out")
		}
		elapsed := time.Since(start)
		changes := int(b.Stats().PeerChanges - before)
		t.Logf("WaitPeers: %v, %d wakes, %d peer-set changes", elapsed, evals-1, changes)
		if elapsed < 20*time.Millisecond {
			t.Fatalf("the wait was held up %v, want >= 20ms: the test no longer tests anything", elapsed)
		}
		if wakes := evals - 1; wakes > 1+changes {
			t.Fatalf("WaitPeers woke %d times over %v for %d peer-set changes, want <= %d", wakes, elapsed, changes, 1+changes)
		}
	})

	t.Run("CloseDrain", func(t *testing.T) {
		f := faultnet.NewFabric(73)
		reg := newRegistry(t)
		opts := func() *Options { return &Options{DisableReconnect: true} }
		b, _ := joinFault(t, f, reg.Addr(), "mon", "maui", opts())
		a, _ := joinFault(t, f, reg.Addr(), "mon", "alan", opts())
		if !a.WaitForPeers(1, 2*time.Second) || !b.WaitForPeers(1, 2*time.Second) {
			t.Fatal("mesh did not form")
		}
		f.StallWrites("maui", true)
		for i := 0; i < 10; i++ {
			if _, err := a.Publish([]byte{byte(i)}, PublishOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		unstall := time.AfterFunc(holdUp, func() { f.StallWrites("maui", false) })
		defer unstall.Stop()
		// Close's drain, as Close runs it: closing first, then the wait.
		a.mu.Lock()
		peers := make([]*peer, 0, len(a.peers))
		for _, p := range a.peers {
			peers = append(peers, p)
		}
		a.mu.Unlock()
		start := time.Now()
		a.closing.Store(true)
		wakes := a.drainOutboxes(peers)
		elapsed := time.Since(start)
		t.Logf("drain: %v, %d wakes, %d peers", elapsed, wakes, len(peers))
		for _, p := range peers {
			if n := p.pending.Load(); n != 0 {
				t.Fatalf("peer %s: %d events still pending after the drain", p.id, n)
			}
		}
		if elapsed < 20*time.Millisecond {
			t.Fatalf("the drain was held up %v, want >= 20ms: the test no longer tests anything", elapsed)
		}
		// One state change per peer: its pending count reaching zero.
		if wakes > 1+len(peers) {
			t.Fatalf("the drain woke %d times over %v for %d peers, want <= %d", wakes, elapsed, len(peers), 1+len(peers))
		}
	})
}

// virtualIO is plain TCP whose connections read deadlines on a virtual
// clock: the shape of an in-memory transport that evaluates them on
// simulated time.
type virtualIO struct {
	tcpTransport
	clk *clock.Virtual
}

func (v virtualIO) Clock() clock.Clock { return v.clk }

// TestWaitGuardRunsOnIOClock: a transport that has a clock moves
// WaitForPeers' guard onto it. With no peer ever arriving, the wait ends
// only once that clock passes the timeout — however much wall time goes by.
func TestWaitGuardRunsOnIOClock(t *testing.T) {
	reg := newRegistry(t)
	vclk := clock.NewVirtual(clock.Epoch)
	client := registry.NewClient(reg.Addr())
	defer client.Close()
	c, err := Join(client, "mon", "alan", &Options{Transport: virtualIO{clk: vclk}, DisableReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan bool, 1)
	go func() { done <- c.WaitForPeers(1, 5*time.Second) }()
	for deadline := time.Now().Add(2 * time.Second); vclk.PendingTimers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("WaitForPeers armed no guard on the transport's clock")
		}
	}
	vclk.Advance(4 * time.Second)
	select {
	case ok := <-done:
		t.Fatalf("WaitForPeers returned %v at virtual +4s, before its 5s timeout", ok)
	case <-time.After(50 * time.Millisecond):
	}
	vclk.Advance(2 * time.Second)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("WaitForPeers reported a peer that never joined")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForPeers still waiting after its I/O clock passed the timeout")
	}
}
