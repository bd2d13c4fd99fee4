package core

import (
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/wire"
)

// A node's registry connection rides its transport: on a fabric-backed
// SimCluster, severing node0 from the registry host kills that connection,
// the next heartbeat redials through the fabric (registry redials 1), and
// the membership of both channels is intact.
func TestRegistryConnectionRidesTheFabric(t *testing.T) {
	const n = 3
	f := faultnet.NewFabric(11)
	clk := clock.NewVirtual(clock.Epoch)
	c, err := NewSimClusterWith(n, clk, 3, 0, func(host string) wire.Transport { return f.Host(host) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node := c.Nodes[0]
	if killed := f.Sever(node.Name(), RegistryHost); killed != 1 {
		t.Fatalf("Sever(%s, %s) killed %d connections, want the node's one registry connection", node.Name(), RegistryHost, killed)
	}
	registry := func(name string) uint64 {
		v, _ := node.Metrics().Value("registry", "", name)
		return v
	}
	// Every channel's supervisor has armed its first round; one advance
	// past the longest jittered interval runs each round once.
	for deadline := time.Now().Add(5 * time.Second); clk.PendingTimers() < 2*n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d supervisor timers armed, want %d", clk.PendingTimers(), 2*n)
		}
	}
	clk.Advance(400 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); registry("heartbeats") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node0 acknowledged %d heartbeats, want one per channel", registry("heartbeats"))
		}
	}
	if got := registry("redials"); got != 1 {
		t.Fatalf("registry redials = %d, want 1", got)
	}
	for _, ch := range []string{dmon.MonitoringChannel, dmon.ControlChannel} {
		members, err := node.Registry().Lookup(ch)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) != n {
			t.Fatalf("%s: %d members after the redial, want %d", ch, len(members), n)
		}
	}
}
