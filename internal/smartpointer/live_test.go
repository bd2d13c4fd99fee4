package smartpointer

import (
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/registry"
)

// liveRig wires a server and one client onto a real data channel, with a
// dproc store feeding the server's dynamic decisions.
type liveRig struct {
	server *LiveServer
	client *LiveClient
	store  *dmon.Store
}

func newLiveRig(t *testing.T, atoms int) *liveRig {
	t.Helper()
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	join := func(id string) *kecho.Channel {
		cli := registry.NewClient(reg.Addr())
		t.Cleanup(func() { cli.Close() })
		ch, err := kecho.Join(cli, DataChannel, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}
	serverCh := join("server")
	clientCh := join("viz1")
	if !serverCh.WaitForPeers(1, 2*time.Second) || !clientCh.WaitForPeers(1, 2*time.Second) {
		t.Fatal("data channel mesh did not form")
	}
	store, err := dmon.OpenStore(dmon.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &liveRig{
		server: NewLiveServer(serverCh, NewGenerator(atoms, 1), store),
		client: NewLiveClient(clientCh, "server"),
		store:  store,
	}
}

// pumpUntil polls both endpoints until cond holds.
func (r *liveRig) pumpUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		r.server.Poll()
		r.client.Poll()
		time.Sleep(time.Millisecond)
	}
}

func TestLiveSubscribeAndReceiveFullStream(t *testing.T) {
	rig := newLiveRig(t, 1000)
	if err := rig.client.Subscribe(PolicyNone, Full); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.server.Subscribers()) == 1 })

	used, err := rig.server.SendFrame()
	if err != nil {
		t.Fatal(err)
	}
	if used["viz1"] != Full {
		t.Fatalf("transform = %v", used["viz1"])
	}
	rig.pumpUntil(t, func() bool { return len(rig.client.Frames()) == 1 })
	f := rig.client.Frames()[0]
	if f.Seq != 1 || f.Transform != Full || f.Atoms != 1000 {
		t.Fatalf("frame = %+v", f)
	}
	if len(f.Payload) != FullSize(1000) {
		t.Fatalf("payload = %d bytes", len(f.Payload))
	}
	if rig.client.LastLatency() <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestLiveStaticTransform(t *testing.T) {
	rig := newLiveRig(t, 1000)
	if err := rig.client.Subscribe(PolicyStatic, Subsample4); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.server.Subscribers()) == 1 })
	if _, err := rig.server.SendFrame(); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.client.Frames()) == 1 })
	f := rig.client.Frames()[0]
	if f.Transform != Subsample4 {
		t.Fatalf("transform = %v", f.Transform)
	}
	if len(f.Payload) >= FullSize(1000)/2 {
		t.Fatalf("subsampled payload = %d bytes, want ~quarter of %d", len(f.Payload), FullSize(1000))
	}
}

func TestLiveDynamicAdaptsToMonitoringData(t *testing.T) {
	rig := newLiveRig(t, 1000)
	if err := rig.client.Subscribe(PolicyDynamic, Full); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.server.Subscribers()) == 1 })

	// No monitoring data yet: the server must fall back to the full stream.
	if _, err := rig.server.SendFrame(); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.client.Frames()) == 1 })
	if got := rig.client.Frames()[0].Transform; got != Full {
		t.Fatalf("no-data transform = %v, want full", got)
	}

	// dproc reports the client heavily loaded: the server pre-renders.
	rig.store.Update(&metrics.Report{
		Node: "viz1",
		Time: clock.Epoch,
		Samples: []metrics.Sample{
			{ID: metrics.LOADAVG, Value: 8},
			{ID: metrics.NETAVAIL, Value: 100e6},
			{ID: metrics.DISKUSAGE, Value: 100},
		},
	})
	if _, err := rig.server.SendFrame(); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.client.Frames()) == 2 })
	if got := rig.client.Frames()[1].Transform; got != PreRender {
		t.Fatalf("loaded-client transform = %v, want prerender", got)
	}

	// Now the network tightens to handheld-class bandwidth too: with 28 KB
	// frames even the pre-rendered stream no longer fits, and rendering
	// from a subsample minimizes the bottleneck stage.
	rig.store.Update(&metrics.Report{
		Node: "viz1",
		Time: clock.Epoch.Add(time.Second),
		Samples: []metrics.Sample{
			{ID: metrics.LOADAVG, Value: 8},
			{ID: metrics.NETAVAIL, Value: 0.2e6},
			{ID: metrics.DISKUSAGE, Value: 100},
		},
	})
	if _, err := rig.server.SendFrame(); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.client.Frames()) == 3 })
	if got := rig.client.Frames()[2].Transform; got != RenderSubsample {
		t.Fatalf("doubly-squeezed transform = %v, want rendersub", got)
	}
	counts := rig.server.SentByTransform()
	if counts[Full] != 1 || counts[PreRender] != 1 || counts[RenderSubsample] != 1 {
		t.Fatalf("SentByTransform = %v", counts)
	}
}

func TestLiveMultipleClientsIndependentStreams(t *testing.T) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	join := func(id string) *kecho.Channel {
		cli := registry.NewClient(reg.Addr())
		t.Cleanup(func() { cli.Close() })
		ch, err := kecho.Join(cli, DataChannel, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}
	serverCh := join("server")
	aCh := join("handheld")
	bCh := join("immersadesk")
	for _, ch := range []*kecho.Channel{serverCh, aCh, bCh} {
		if !ch.WaitForPeers(2, 2*time.Second) {
			t.Fatal("mesh did not form")
		}
	}
	server := NewLiveServer(serverCh, NewGenerator(1000, 1), nil)
	// The paper: "resource-constrained devices such as wireless handhelds
	// can downsample a data stream, while other, resource-rich, devices can
	// receive the full-quality data stream."
	handheld := NewLiveClient(aCh, "server")
	desk := NewLiveClient(bCh, "server")
	if err := handheld.Subscribe(PolicyStatic, Subsample4); err != nil {
		t.Fatal(err)
	}
	if err := desk.Subscribe(PolicyNone, Full); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(server.Subscribers()) < 2 {
		server.Poll()
		if time.Now().After(deadline) {
			t.Fatal("subscriptions did not arrive")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := server.SendFrame(); err != nil {
		t.Fatal(err)
	}
	for len(handheld.Frames()) == 0 || len(desk.Frames()) == 0 {
		handheld.Poll()
		desk.Poll()
		if time.Now().After(deadline) {
			t.Fatal("frames did not arrive")
		}
		time.Sleep(time.Millisecond)
	}
	if handheld.Bytes() >= desk.Bytes() {
		t.Fatalf("handheld received %d bytes, desk %d — downsampling had no effect",
			handheld.Bytes(), desk.Bytes())
	}
}

func TestLiveServerWithEcodePolicy(t *testing.T) {
	rig := newLiveRig(t, 1000)
	policy, err := NewEcodePolicy(DefaultPolicySource)
	if err != nil {
		t.Fatal(err)
	}
	rig.server.SetEcodePolicy(policy)
	if err := rig.client.Subscribe(PolicyDynamic, Full); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.server.Subscribers()) == 1 })

	// dproc says the client is CPU-starved: the E-code policy pre-renders.
	rig.store.Update(&metrics.Report{
		Node: "viz1",
		Time: clock.Epoch,
		Samples: []metrics.Sample{
			{ID: metrics.LOADAVG, Value: 9},
			{ID: metrics.NETAVAIL, Value: 100e6},
			{ID: metrics.DISKUSAGE, Value: 10},
		},
	})
	used, err := rig.server.SendFrame()
	if err != nil {
		t.Fatal(err)
	}
	if used["viz1"] != PreRender {
		t.Fatalf("ecode policy chose %v, want prerender", used["viz1"])
	}
	if rig.server.PolicyErrors() != 0 {
		t.Fatalf("policy errors = %d", rig.server.PolicyErrors())
	}
	// A broken policy falls back to the builtin chooser without failing the
	// stream.
	broken, err := NewEcodePolicy("return 12345;")
	if err != nil {
		t.Fatal(err)
	}
	rig.server.SetEcodePolicy(broken)
	used, err = rig.server.SendFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := used["viz1"]; !ok {
		t.Fatal("stream stalled on broken policy")
	}
	if rig.server.PolicyErrors() != 1 {
		t.Fatalf("policy errors = %d, want 1", rig.server.PolicyErrors())
	}
}

func TestDeadSubscriberDroppedNotFatal(t *testing.T) {
	rig := newLiveRig(t, 1000)
	if err := rig.client.Subscribe(PolicyNone, Full); err != nil {
		t.Fatal(err)
	}
	rig.pumpUntil(t, func() bool { return len(rig.server.Subscribers()) == 1 })
	// Forge a second subscription from a client that was never connected.
	ghost := Subscription{Client: "ghost", Policy: PolicyNone}
	rig.server.mu.Lock()
	rig.server.subs["ghost"] = ghost
	rig.server.mu.Unlock()

	used, err := rig.server.SendFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := used["viz1"]; !ok {
		t.Fatal("live client starved by a dead subscriber")
	}
	if _, ok := used["ghost"]; ok {
		t.Fatal("delivery to the ghost client reported as success")
	}
	if rig.server.DroppedSubscribers() != 1 {
		t.Fatalf("dropped = %d", rig.server.DroppedSubscribers())
	}
	for _, id := range rig.server.Subscribers() {
		if id == "ghost" {
			t.Fatal("dead subscriber not removed")
		}
	}
}

func TestEcodePolicyChoices(t *testing.T) {
	p, err := NewEcodePolicy(DefaultPolicySource)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		info ClientInfo
		want Transform
	}{
		{"idle", ClientInfo{CPUShare: 1, AvailBps: 100e6, Valid: true}, Full},
		{"cpu starved", ClientInfo{CPUShare: 0.1, AvailBps: 100e6, Valid: true}, PreRender},
		{"net starved", ClientInfo{CPUShare: 1, AvailBps: 10e6, Valid: true}, Subsample4},
		{"net tight", ClientInfo{CPUShare: 1, AvailBps: 30e6, Valid: true}, Subsample2},
		{"both starved", ClientInfo{CPUShare: 0.1, AvailBps: 10e6, Valid: true}, RenderSubsample},
		{"cpu busy-ish", ClientInfo{CPUShare: 0.5, AvailBps: 100e6, Valid: true}, DropVelocity},
	}
	for _, c := range cases {
		got, err := p.Choose(c.info)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEcodePolicyValidation(t *testing.T) {
	if _, err := NewEcodePolicy("return nonsense;"); err == nil {
		t.Fatal("undefined symbol accepted")
	}
	// Returning a double is a type error at Choose time.
	p, err := NewEcodePolicy("return 1.5;")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Choose(ClientInfo{Valid: true}); err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("err = %v", err)
	}
	// Out-of-range transform id falls back with an error.
	p2, err := NewEcodePolicy("return 999;")
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Choose(ClientInfo{Valid: true})
	if err == nil || got != Full {
		t.Fatalf("got (%v, %v)", got, err)
	}
	// Void return (no return statement) is also rejected.
	p3, err := NewEcodePolicy("int x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Choose(ClientInfo{Valid: true}); err == nil {
		t.Fatal("void policy accepted")
	}
}

func TestEcodePolicySourceRoundTrip(t *testing.T) {
	p, err := NewEcodePolicy(DefaultPolicySource)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewEcodePolicy(p.filter.Source())
	if err != nil {
		t.Fatal(err)
	}
	info := ClientInfo{CPUShare: 0.1, AvailBps: 100e6, Valid: true}
	a, _ := p.Choose(info)
	b, _ := p2.Choose(info)
	if a != b {
		t.Fatal("redistributed policy behaves differently")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := decodeFrame([]byte{99}); err == nil {
		t.Fatal("bad message type accepted")
	}
	if _, err := decodeFrame(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	good := encodeFrame(1, Full, 10, time.Now(), []byte{1, 2})
	if _, err := decodeFrame(append(good, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestSlowSubscriberSkippedNotDropped pins the backpressure policy: a
// subscriber whose outbound queue is momentarily full misses frames
// (counted in SkippedFrames) but keeps its subscription — only a client
// that is gone from the channel is dropped. Pre-fix, any SubmitTo error
// deleted the subscription, so transient overflow forced a resubscribe.
func TestSlowSubscriberSkippedNotDropped(t *testing.T) {
	f := faultnet.NewFabric(31)
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	join := func(id string, opts *kecho.Options) *kecho.Channel {
		cli := registry.NewClient(reg.Addr())
		cli.SetTransport(f.Host(id))
		t.Cleanup(func() { cli.Close() })
		opts.Transport = f.Host(id)
		ch, err := kecho.Join(cli, DataChannel, id, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ch.Close() })
		return ch
	}
	// The client joins first so the server dials it (write stalls attach to
	// the dial-side wrapper). A one-slot outbox overflows after one queued
	// frame plus one in the writer's stalled send.
	clientCh := join("viz1", &kecho.Options{DisableReconnect: true})
	serverCh := join("server", &kecho.Options{
		OutboxSize:       1,
		WriteDeadline:    5 * time.Second,
		DisableReconnect: true,
	})
	if !serverCh.WaitForPeers(1, 2*time.Second) || !clientCh.WaitForPeers(1, 2*time.Second) {
		t.Fatal("data channel mesh did not form")
	}
	server := NewLiveServer(serverCh, NewGenerator(100, 1), nil)
	client := NewLiveClient(clientCh, "server")
	if err := client.Subscribe(PolicyNone, Full); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(server.Subscribers()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscription did not arrive")
		}
		server.Poll()
		time.Sleep(time.Millisecond)
	}

	f.StallWrites("viz1", true)
	// Frame 1 ends up in the stalled writer, frame 2 fills the one-slot
	// outbox, so frame 3 must overflow and be skipped.
	for i := 0; i < 3; i++ {
		if _, err := server.SendFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if s := server.SkippedFrames(); s < 1 {
		t.Fatalf("SkippedFrames = %d, want >= 1", s)
	}
	if d := server.DroppedSubscribers(); d != 0 {
		t.Fatalf("DroppedSubscribers = %d, want 0 (client is slow, not gone)", d)
	}
	if subs := server.Subscribers(); len(subs) != 1 || subs[0] != "viz1" {
		t.Fatalf("subscribers = %v, want [viz1]", subs)
	}

	// Once the stall lifts, the kept subscription keeps streaming.
	f.StallWrites("viz1", false)
	deadline = time.Now().Add(5 * time.Second)
	for len(client.Frames()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stream did not resume after the stall lifted")
		}
		if _, err := server.SendFrame(); err != nil {
			t.Fatal(err)
		}
		client.Poll()
		time.Sleep(time.Millisecond)
	}
}

// DroppedSubscribers counts clients dropped after delivery failures.
func (s *LiveServer) DroppedSubscribers() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SkippedFrames counts frames withheld from slow-but-alive subscribers
// whose outbound queue was full at send time.
func (s *LiveServer) SkippedFrames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// DefaultPolicySource is a reference policy equivalent in spirit to the
// hybrid monitor: prefer full data, pre-render for CPU-starved clients on
// healthy networks, downsample for network-starved clients, and fall back to
// rendering from a subsample when both resources are tight.
const DefaultPolicySource = `
if (cpu_share < 0.3 && net_avail_mbps < 40.0) {
  return RENDERSUB;
}
if (cpu_share < 0.3) {
  return PRERENDER;
}
if (net_avail_mbps < 20.0) {
  return SUBSAMPLE4;
}
if (net_avail_mbps < 40.0) {
  return SUBSAMPLE2;
}
if (cpu_share < 0.6) {
  return DROPVEL;
}
return FULL;
`
