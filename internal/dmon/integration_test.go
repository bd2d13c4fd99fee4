package dmon

import (
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/registry"
	"dproc/internal/simres"
)

// liveNode is a d-mon attached to real KECho channels over loopback TCP,
// driven by the real clock.
type liveNode struct {
	host *simres.Host
	d    *DMon
	mon  *kecho.Channel
	ctl  *kecho.Channel
}

func newLiveCluster(t *testing.T, names ...string) []*liveNode {
	t.Helper()
	regSrv, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { regSrv.Close() })
	clk := clock.NewReal()
	var nodes []*liveNode
	for i, name := range names {
		host := simres.NewHost(name, clk, int64(i+1))
		host.SetNoise(0)
		d := New(name, clk, host)
		regCli := registry.NewClient(regSrv.Addr())
		t.Cleanup(func() { regCli.Close() })
		mon, err := kecho.Join(regCli, MonitoringChannel, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mon.Close() })
		ctl, err := kecho.Join(regCli, ControlChannel, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctl.Close() })
		d.Attach(mon, ctl)
		nodes = append(nodes, &liveNode{host: host, d: d, mon: mon, ctl: ctl})
	}
	for _, n := range nodes {
		if !n.mon.WaitForPeers(len(names)-1, 2*time.Second) ||
			!n.ctl.WaitForPeers(len(names)-1, 2*time.Second) {
			t.Fatal("channel mesh did not form")
		}
	}
	return nodes
}

// pump polls all nodes' channels until cond holds or the deadline passes.
func pump(t *testing.T, nodes []*liveNode, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached while pumping channels")
		}
		for _, n := range nodes {
			n.d.PollChannels()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMonitoringReportsReachRemoteStores(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui", "etna")
	nodes[0].host.AddTask(2) // alan has load 2
	report, sent, err := nodes[0].d.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || sent != 2 {
		t.Fatalf("report=%v sent=%d, want delivery to 2 peers", report, sent)
	}
	pump(t, nodes, func() bool {
		v1, ok1 := nodes[1].d.Store().Value("alan", metrics.LOADAVG)
		v2, ok2 := nodes[2].d.Store().Value("alan", metrics.LOADAVG)
		return ok1 && ok2 && v1 == 2 && v2 == 2
	})
	// alan's own store holds its own data too — recorded locally at publish
	// time (the channels deliver only to peers), so cluster-wide history
	// queries can ask each node for its own series.
	if v, ok := nodes[0].d.Store().Value("alan", metrics.LOADAVG); !ok || v != 2 {
		t.Fatalf("publisher's own history = (%g, %v), want its published sample", v, ok)
	}
}

func TestRemoteFilterDeploymentViaControlChannel(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui")
	// maui deploys a filter on alan: only loadavg above 2 is reported.
	err := nodes[1].d.SendControl("alan",
		"filter all\nif (input[LOADAVG].value > 2) { output[0] = input[LOADAVG]; }")
	if err != nil {
		t.Fatal(err)
	}
	pump(t, nodes, func() bool { return nodes[0].d.HasFilter() })

	// Idle alan: poll produces nothing (loadavg 0 blocked by filter).
	report, _, err := nodes[0].d.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("filtered node still published: %+v", report.Samples)
	}
	// Load alan beyond the threshold; next poll publishes exactly loadavg.
	nodes[0].host.AddTask(3)
	time.Sleep(1100 * time.Millisecond) // let the 1s period elapse (real clock)
	report, _, err = nodes[0].d.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Samples) != 1 || report.Samples[0].ID != metrics.LOADAVG {
		t.Fatalf("report = %+v, want single loadavg sample", report)
	}
	pump(t, nodes, func() bool {
		v, ok := nodes[1].d.Store().Value("alan", metrics.LOADAVG)
		return ok && v == 3
	})
}

func TestBroadcastControlReachesAllNodes(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui", "etna")
	if err := nodes[0].d.SendControl("", "period cpu 7"); err != nil {
		t.Fatal(err)
	}
	pump(t, nodes, func() bool {
		return nodes[1].d.Period(metrics.CPU) == 7*time.Second &&
			nodes[2].d.Period(metrics.CPU) == 7*time.Second
	})
	// Sender's own period is unchanged (no self-delivery on KECho).
	if nodes[0].d.Period(metrics.CPU) != time.Second {
		t.Fatal("broadcast control looped back to sender")
	}
}

func TestTargetedControlDoesNotLeak(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui", "etna")
	if err := nodes[0].d.SendControl("maui", "period disk 9"); err != nil {
		t.Fatal(err)
	}
	pump(t, nodes, func() bool {
		return nodes[1].d.Period(metrics.Disk) == 9*time.Second
	})
	if nodes[2].d.Period(metrics.Disk) != time.Second {
		t.Fatal("targeted control affected a third node")
	}
}

func TestSendControlWithoutChannel(t *testing.T) {
	d := New("solo", clock.NewReal(), nil)
	if err := d.SendControl("", "period cpu 1"); err == nil {
		t.Fatal("SendControl without attached channel succeeded")
	}
}

func TestMalformedEventsIgnored(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui")
	// Raw garbage on both channels must not disturb the receiver.
	if _, err := nodes[0].mon.Publish([]byte("not a report"), kecho.PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].ctl.Publish([]byte{0xFF}, kecho.PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		nodes[1].d.PollChannels()
		time.Sleep(2 * time.Millisecond)
	}
	if len(nodes[1].d.Store().Nodes()) != 0 {
		t.Fatal("garbage produced store entries")
	}
}

// A report speaks only for its publisher: maui publishing a report that
// names "eve" has it refused by alan's d-mon and counted, while maui's own
// report after it lands in alan's store.
func TestReportSpeaksOnlyForItsPublisher(t *testing.T) {
	nodes := newLiveCluster(t, "alan", "maui")
	alan, maui := nodes[0], nodes[1]
	forged := metrics.Report{Node: "eve", Seq: 1, Time: time.Now(),
		Samples: []metrics.Sample{{ID: metrics.LOADAVG, Value: 99, Time: time.Now()}}}
	if _, err := maui.mon.Publish(forged.Encode(), kecho.PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := maui.d.PollOnce(); err != nil {
		t.Fatal(err)
	}
	pump(t, nodes, func() bool { _, n := alan.d.Store().LastReport("maui"); return n == 1 })
	if _, n := alan.d.Store().LastReport("eve"); n != 0 {
		t.Fatalf("alan's store holds %d reports for eve, published by maui", n)
	}
	if n := alan.d.wrongOrigin.Load(); n != 1 {
		t.Fatalf("report_origin_mismatch = %d, want 1", n)
	}
}
