package federation

import (
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/registry"
)

// rig is one cluster plus a gateway onto a separate wide-area registry, and
// a grid-side observer d-mon on the uplink channels.
type rig struct {
	cluster  *core.SimCluster
	gateway  *Gateway
	observer *dmon.DMon
	obsMon   *kecho.Channel
	obsCtl   *kecho.Channel
}

func newRig(t *testing.T, mode Mode) *rig {
	t.Helper()
	cluster, err := core.NewSimCluster(3, clock.NewReal(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	for _, h := range cluster.Hosts {
		h.SetNoise(0)
	}

	// Wide-area registry and channels.
	wan, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wan.Close() })
	joinWAN := func(channel, id string) *kecho.Channel {
		cli := registry.NewClient(wan.Addr())
		t.Cleanup(func() { cli.Close() })
		ch, err := kecho.Join(cli, channel, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}
	upMon := joinWAN("grid.monitoring", "gw-clusterA")
	upCtl := joinWAN("grid.control", "gw-clusterA")
	obsMon := joinWAN("grid.monitoring", "grid-manager")
	obsCtl := joinWAN("grid.control", "grid-manager")
	upMon.WaitForPeers(1, 2*time.Second)
	upCtl.WaitForPeers(1, 2*time.Second)

	// The gateway joins the cluster's own channels as an extra member.
	joinLocal := func(channel string) *kecho.Channel {
		cli := registry.NewClient(cluster.Registry.Addr())
		t.Cleanup(func() { cli.Close() })
		ch, err := kecho.Join(cli, channel, "gateway", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}
	localMon := joinLocal(dmon.MonitoringChannel)
	localCtl := joinLocal(dmon.ControlChannel)
	localMon.WaitForPeers(3, 2*time.Second)
	localCtl.WaitForPeers(3, 2*time.Second)

	gw, err := NewGateway(Config{
		ClusterName: "clusterA",
		Mode:        mode,
		Period:      time.Millisecond, // push eagerly in tests
		LocalMon:    localMon,
		LocalCtl:    localCtl,
		UpMon:       upMon,
		UpCtl:       upCtl,
	})
	if err != nil {
		t.Fatal(err)
	}

	observer := dmon.New("grid-manager", clock.NewReal(), nil)
	observer.Attach(obsMon, obsCtl)
	return &rig{cluster: cluster, gateway: gw, observer: observer, obsMon: obsMon, obsCtl: obsCtl}
}

// pump runs the whole pipeline until cond holds: cluster publishes, gateway
// polls/pushes, observer drains.
func (r *rig) pump(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		_, _, _ = r.cluster.PollAll()
		r.cluster.DrainAll(5 * time.Millisecond)
		if _, err := r.gateway.Poll(); err != nil {
			t.Fatal(err)
		}
		r.observer.PollChannels()
		time.Sleep(2 * time.Millisecond)
	}
}

func TestForwardModeExportsRenamedNodes(t *testing.T) {
	r := newRig(t, Forward)
	r.cluster.Hosts[1].AddTask(2)
	// Pump until everything asserted below holds: node1's new load and all
	// three nodes under the prefix. Each node's report crosses the gateway
	// on its own, so node1's value arriving says nothing about node2's.
	r.pump(t, func() bool {
		store := r.observer.Store()
		for _, want := range []string{"clusterA/node0", "clusterA/node1", "clusterA/node2"} {
			if _, ok := store.Value(want, metrics.LOADAVG); !ok {
				return false
			}
		}
		v, _ := store.Value("clusterA/node1", metrics.LOADAVG)
		return v == 2
	})
	pushed, _ := r.gateway.Stats()
	if pushed == 0 {
		t.Fatal("gateway counted no pushes")
	}
}

func TestAggregateModeExportsOneSummary(t *testing.T) {
	r := newRig(t, Aggregate)
	r.cluster.Hosts[0].AddTask(3) // loads: 3, 0, 0 → mean 1
	r.pump(t, func() bool {
		v, ok := r.observer.Store().Value("clusterA", metrics.LOADAVG)
		return ok && v == 1
	})
	// Summed capacity: three 512 MB nodes.
	total, ok := r.observer.Store().Value("clusterA", metrics.TOTALMEM)
	if !ok || total != float64(3*(512<<20)) {
		t.Fatalf("TOTALMEM = (%g, %v)", total, ok)
	}
	// No per-node names leak in aggregate mode.
	for _, n := range r.observer.Store().Nodes() {
		if n != "clusterA" {
			t.Fatalf("unexpected exported node %q", n)
		}
	}
}

func TestInwardControlRouting(t *testing.T) {
	r := newRig(t, Forward)
	// Ensure data flows first so the route is warm.
	r.pump(t, func() bool {
		_, ok := r.observer.Store().Value("clusterA/node2", metrics.LOADAVG)
		return ok
	})
	// The grid manager retunes one node inside the cluster: the control
	// event crosses the WAN channel to the gateway, which re-addresses it
	// onto the cluster's own control channel.
	payload := dmon.EncodeControl("clusterA/node2", "period disk 9")
	if err := r.obsCtl.SubmitTo("gw-clusterA", payload); err != nil {
		t.Fatal(err)
	}
	r.pump(t, func() bool {
		return r.cluster.Nodes[2].DMon().Period(metrics.Disk) == 9*time.Second
	})
	// Other nodes untouched.
	if r.cluster.Nodes[1].DMon().Period(metrics.Disk) != time.Second {
		t.Fatal("control leaked to another node")
	}
	_, routed := r.gateway.Stats()
	if routed != 1 {
		t.Fatalf("routed = %d", routed)
	}
}

func TestInwardBroadcastControl(t *testing.T) {
	r := newRig(t, Forward)
	r.pump(t, func() bool {
		_, ok := r.observer.Store().Value("clusterA/node0", metrics.LOADAVG)
		return ok
	})
	// Target "clusterA" with no node part: broadcast within the cluster.
	payload := dmon.EncodeControl("clusterA", "period cpu 6")
	if err := r.obsCtl.SubmitTo("gw-clusterA", payload); err != nil {
		t.Fatal(err)
	}
	r.pump(t, func() bool {
		for _, n := range r.cluster.Nodes {
			if n.DMon().Period(metrics.CPU) != 6*time.Second {
				return false
			}
		}
		return true
	})
}

func TestControlForOtherClusterIgnored(t *testing.T) {
	r := newRig(t, Forward)
	r.pump(t, func() bool {
		_, ok := r.observer.Store().Value("clusterA/node0", metrics.LOADAVG)
		return ok
	})
	payload := dmon.EncodeControl("clusterB/node0", "period cpu 8")
	if err := r.obsCtl.SubmitTo("gw-clusterA", payload); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := r.gateway.Poll(); err != nil {
		t.Fatal(err)
	}
	if r.cluster.Nodes[0].DMon().Period(metrics.CPU) != time.Second {
		t.Fatal("control for another cluster applied here")
	}
	_, routed := r.gateway.Stats()
	if routed != 0 {
		t.Fatalf("routed = %d", routed)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := NewGateway(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewGateway(Config{ClusterName: "a/b"}); err == nil {
		t.Fatal("separator in cluster name accepted")
	}
}

func TestSplitNodeName(t *testing.T) {
	c, n := SplitNodeName("clusterA/node3")
	if c != "clusterA" || n != "node3" {
		t.Fatalf("split = (%q, %q)", c, n)
	}
	c, n = SplitNodeName("clusterA")
	if c != "clusterA" || n != "" {
		t.Fatalf("split = (%q, %q)", c, n)
	}
}

func TestModeString(t *testing.T) {
	if Forward.String() != "forward" || Aggregate.String() != "aggregate" {
		t.Fatal("mode names")
	}
}
