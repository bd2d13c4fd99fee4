package core

import (
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/faultnet"
	"dproc/internal/simres"
	"dproc/internal/wire"
)

// TestWaitsWakeOnEvents holds SimCluster formation up with faultnet and
// counts how often its waits woke: at most once per peer-set change in the
// cluster, plus one. Every host's transport is a fabric host. Once the last
// node is configured, node0 reads nothing for 60 ms, so it hears that node's
// hellos (and its own registry replies) only then; a formation that polled
// on 1 ms sleeps would wake about 60 times. The node clock is virtual and
// never advanced: formation must not depend on it.
func TestWaitsWakeOnEvents(t *testing.T) {
	t.Run("SimClusterFormation", func(t *testing.T) {
		const holdUp = 60 * time.Millisecond
		f := faultnet.NewFabric(79)
		var start time.Time
		unstall := time.AfterFunc(time.Hour, func() { f.StallReads("node0", false) })
		defer unstall.Stop()
		c, err := NewSimClusterWith(3, clock.NewVirtual(clock.Epoch), 5, 0, func(host string) wire.Transport {
			return f.Host(host)
		}, func(i int, cfg *Config) {
			if i == 2 {
				f.StallReads("node0", true)
				start = time.Now()
				unstall.Reset(holdUp)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		elapsed := time.Since(start)
		var changes uint64
		for _, n := range c.Nodes {
			changes += n.MonitoringChannel().Stats().PeerChanges + n.ControlChannel().Stats().PeerChanges
		}
		t.Logf("formation: %v, %d wakes, %d peer-set changes", elapsed, c.formWakes, changes)
		if elapsed < 20*time.Millisecond {
			t.Fatalf("formation was held up %v, want >= 20ms: the test no longer tests anything", elapsed)
		}
		if c.formWakes > 1+int(changes) {
			t.Fatalf("formation woke %d times over %v for %d peer-set changes, want <= %d",
				c.formWakes, elapsed, changes, 1+changes)
		}
	})
}

// StartPolling paces itself on the node clock: on a virtual clock a poll
// happens when, and only when, the clock is advanced past the next interval.
func TestStartPollingPacesOnNodeClock(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	polls := func() uint64 { _, count := n.DMon().Store().LastReport("alan"); return count }
	n.StartPolling() // at the default PollPeriod, one second
	defer n.StopPolling()
	for i := uint64(1); i <= 3; i++ {
		for deadline := time.Now().Add(2 * time.Second); clk.PendingTimers() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("poll %d: the loop armed no timer on the node clock", i)
			}
		}
		if got := polls(); got != i-1 {
			t.Fatalf("before advancing to poll %d: %d polls, want %d", i, got, i-1)
		}
		clk.Advance(time.Second)
		for deadline := time.Now().Add(2 * time.Second); polls() < i; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("advancing one interval did not poll: %d polls, want %d", polls(), i)
			}
		}
	}
}
