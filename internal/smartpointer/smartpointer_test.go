package smartpointer

import (
	"math"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/netsim"
	"dproc/internal/simres"
)

func TestGeneratorFrameLayout(t *testing.T) {
	g := NewGenerator(1000, 1)
	f := g.Next()
	if f.Seq != 1 || f.Atoms != 1000 {
		t.Fatalf("frame = %+v", f)
	}
	if len(f.Data) != 1000*28 {
		t.Fatalf("frame size = %d, want %d", len(f.Data), 1000*28)
	}
	f2 := g.Next()
	if f2.Seq != 2 {
		t.Fatal("seq did not advance")
	}
}

func TestGeneratorDefaultIsThreeMB(t *testing.T) {
	g := NewGenerator(0, 1)
	size := FullSize(g.Atoms())
	if size < 3_000_000 || size > 3_300_000 {
		t.Fatalf("default frame = %d bytes, want ~3MB (Figure 10 events)", size)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(100, 9)
	g2 := NewGenerator(100, 9)
	f1, f2 := g1.Next(), g2.Next()
	if string(f1.Data) != string(f2.Data) {
		t.Fatal("same seed produced different frames")
	}
}

func TestTransformNamesRoundTrip(t *testing.T) {
	for tr := Transform(0); tr < NumTransforms; tr++ {
		got, ok := ParseTransform(tr.String())
		if !ok || got != tr {
			t.Fatalf("ParseTransform(%q) = (%v, %v)", tr.String(), got, ok)
		}
	}
	if _, ok := ParseTransform("bogus"); ok {
		t.Fatal("unknown transform parsed")
	}
}

func TestTransformApplySizesMatchFactors(t *testing.T) {
	g := NewGenerator(DefaultAtoms, 1)
	f := g.Next()
	full := len(Full.Apply(f))
	if full != len(f.Data) {
		t.Fatalf("Full.Apply changed size: %d vs %d", full, len(f.Data))
	}
	for tr := Transform(0); tr < NumTransforms; tr++ {
		got := float64(len(tr.Apply(f))) / float64(full)
		want := tr.SizeFactor()
		if math.Abs(got-want)/want > 0.12 {
			t.Errorf("%v: actual size factor %.3f vs nominal %.3f", tr, got, want)
		}
	}
}

func TestPreRenderIsLargerThanFull(t *testing.T) {
	// The Figure 11 effect depends on pre-rendering *increasing* stream size.
	g := NewGenerator(DefaultAtoms, 1)
	f := g.Next()
	if len(PreRender.Apply(f)) <= len(f.Data) {
		t.Fatal("PreRender payload not larger than the raw frame")
	}
	if PreRender.SizeFactor() <= 1 {
		t.Fatal("PreRender nominal size factor must exceed 1")
	}
	if PreRender.CostFactor() >= Full.CostFactor() {
		t.Fatal("PreRender must slash client processing cost")
	}
}

func TestTransformApplyDoesNotAliasFrame(t *testing.T) {
	g := NewGenerator(100, 1)
	f := g.Next()
	out := Full.Apply(f)
	out[0] ^= 0xFF
	if f.Data[0] == out[0] {
		t.Fatal("Apply returned a slice aliasing the frame")
	}
}

func newTestClient(baseProc float64) (*Client, *clock.Virtual, *simres.Host) {
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("client", clk, 1)
	host.SetNoise(0)
	c := NewClient("c", clk, host, 1_000_000, baseProc)
	return c, clk, host
}

func TestClientProcessingScalesWithLoadAndSize(t *testing.T) {
	c, _, host := newTestClient(0.1)
	idleFull := c.ProcSeconds(1_000_000, Full)
	if math.Abs(idleFull-0.1) > 1e-9 {
		t.Fatalf("idle full proc = %g, want 0.1", idleFull)
	}
	if got := c.ProcSeconds(500_000, Full); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("half-size proc = %g", got)
	}
	host.AddTask(1) // share halves
	if got := c.ProcSeconds(1_000_000, Full); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("loaded proc = %g, want 0.2", got)
	}
	// PreRender is dramatically cheaper per byte.
	if got := c.ProcSeconds(1_400_000, PreRender); got > 0.05 {
		t.Fatalf("prerender proc = %g, want tiny", got)
	}
}

func TestClientQueueGrowsWhenOverloaded(t *testing.T) {
	c, clk, host := newTestClient(0.15)
	host.AddTask(3) // share 1/4 → proc 0.6s per event, interval 0.2s
	var first, last time.Duration
	for i := 0; i < 20; i++ {
		lat := c.Receive(clk.Now(), 1_000_000, Full)
		if i == 0 {
			first = lat
		}
		last = lat
		clk.Advance(200 * time.Millisecond)
	}
	if last <= first {
		t.Fatalf("overloaded queue latency flat: %v vs %v", first, last)
	}
	if last < 5*time.Second {
		t.Fatalf("after 20 events at 3x overload, latency = %v, want seconds", last)
	}
}

func TestClientStableWhenKeepingUp(t *testing.T) {
	c, clk, _ := newTestClient(0.1) // idle: 0.1s proc, 0.2s interval
	var latencies []time.Duration
	for i := 0; i < 20; i++ {
		latencies = append(latencies, c.Receive(clk.Now(), 1_000_000, Full))
		clk.Advance(200 * time.Millisecond)
	}
	for i := 3; i < len(latencies); i++ {
		if latencies[i] > latencies[2]*2 {
			t.Fatalf("latency drifted while keeping up: %v", latencies)
		}
	}
}

func TestClientRateAndCompletions(t *testing.T) {
	c, clk, _ := newTestClient(0.05)
	for i := 0; i < 50; i++ {
		c.Receive(clk.Now(), 1_000_000, Full)
		clk.Advance(200 * time.Millisecond)
	}
	end := clk.Now()
	if got := len(c.Latencies()); got != 50 {
		t.Fatalf("%d events received, want 50", got)
	}
	rate := c.RateOver(end, 5*time.Second)
	if rate < 4.5 || rate > 5.5 {
		t.Fatalf("rate = %g, want ~5/s", rate)
	}
	if c.CompletedBy(end) != 50 {
		t.Fatalf("CompletedBy(end) = %d", c.CompletedBy(end))
	}
	if c.MeanLatency(0) <= 0 || c.MeanLatency(10) <= 0 {
		t.Fatal("mean latency not positive")
	}
}

func TestClientInfoReflectsHost(t *testing.T) {
	c, clk, host := newTestClient(0.1)
	host.AddTask(2)
	host.Link().SetPerturbation(netsim.Mbps(40))
	for i := 0; i < 5; i++ {
		c.Receive(clk.Now(), 500_000, Full)
		clk.Advance(time.Second)
	}
	info := c.Info()
	if !info.Valid {
		t.Fatal("info not valid")
	}
	if info.Load != 2 {
		t.Fatalf("Load = %g", info.Load)
	}
	if info.AvailBps != 60e6 {
		t.Fatalf("AvailBps = %g", info.AvailBps)
	}
	if info.DiskSectorsPerSec <= 0 {
		t.Fatal("disk activity not tracked")
	}
	if info.DiskCapBps != DefaultDiskBps {
		t.Fatalf("DiskCapBps = %g", info.DiskCapBps)
	}
}

func TestChooseDynamicPrefersFullWhenIdle(t *testing.T) {
	info := ClientInfo{Load: 0, CPUShare: 1, AvailBps: 100e6, DiskCapBps: DefaultDiskBps, Valid: true}
	got := ChooseDynamic(info, 1_000_000, 200*time.Millisecond, 0.1, MonitorHybrid)
	if got != Full {
		t.Fatalf("idle client got %v, want full", got)
	}
}

func TestChooseDynamicCPULoadedPicksPreRender(t *testing.T) {
	// Heavy CPU load, clean network: CPU-only monitoring pre-renders.
	info := ClientInfo{Load: 8, CPUShare: 1.0 / 9, AvailBps: 100e6, DiskCapBps: DefaultDiskBps, Valid: true}
	got := ChooseDynamic(info, 1_000_000, 180*time.Millisecond, 0.15, MonitorCPUOnly)
	if got != PreRender {
		t.Fatalf("CPU-loaded client got %v, want prerender", got)
	}
}

func TestChooseDynamicNetLimitedPicksSubsample(t *testing.T) {
	// 3 MB frames, 10 Mbps left: network-only monitoring must shrink data.
	info := ClientInfo{Load: 0, CPUShare: 1, AvailBps: 10e6, DiskCapBps: DefaultDiskBps, Valid: true}
	got := ChooseDynamic(info, 3_000_000, 800*time.Millisecond, 0.02, MonitorNetOnly)
	if got.SizeFactor() > 0.5 {
		t.Fatalf("net-limited client got %v (size %.2f), want a reducing transform",
			got, got.SizeFactor())
	}
	if got == PreRender {
		t.Fatal("net-limited client chose the size-increasing transform")
	}
}

func TestChooseDynamicHybridHandlesBothPressures(t *testing.T) {
	// CPU loaded AND network squeezed: only the render-from-subsample
	// transform satisfies both; single-resource monitors pick wrong.
	info := ClientInfo{Load: 6, CPUShare: 1.0 / 7, AvailBps: 15e6, DiskCapBps: DefaultDiskBps, Valid: true}
	hybrid := ChooseDynamic(info, 3_000_000, 800*time.Millisecond, 0.3, MonitorHybrid)
	cpuOnly := ChooseDynamic(info, 3_000_000, 800*time.Millisecond, 0.3, MonitorCPUOnly)
	netOnly := ChooseDynamic(info, 3_000_000, 800*time.Millisecond, 0.3, MonitorNetOnly)
	estTrue := func(tr Transform) float64 {
		st := EstimateStages(tr, info, 3_000_000, 0.3, MonitorHybrid)
		return st.Net + st.CPU + st.Disk // the serial latency
	}
	if estTrue(hybrid) > estTrue(cpuOnly) || estTrue(hybrid) > estTrue(netOnly) {
		t.Fatalf("hybrid pick %v (%.3fs) worse than cpu-only %v (%.3fs) or net-only %v (%.3fs)",
			hybrid, estTrue(hybrid), cpuOnly, estTrue(cpuOnly), netOnly, estTrue(netOnly))
	}
}

func TestChooseDynamicInvalidInfoFallsBackToFull(t *testing.T) {
	if got := ChooseDynamic(ClientInfo{}, 1e6, time.Second, 0.1, MonitorHybrid); got != Full {
		t.Fatalf("got %v", got)
	}
}

func TestPolicyAndMonitorStrings(t *testing.T) {
	if PolicyNone.String() != "no filter" || PolicyStatic.String() != "static filter" ||
		PolicyDynamic.String() != "dynamic filter" {
		t.Fatal("policy names do not match the paper's legends")
	}
	if MonitorCPUOnly.String() != "cpu monitor" || MonitorNetOnly.String() != "network monitor" ||
		MonitorHybrid.String() != "hybrid monitor" {
		t.Fatal("monitor names do not match Figure 11's legend")
	}
	if (MonitorSet{CPU: true, Net: true}).String() != "cpu+net" {
		t.Fatalf("custom set name = %q", MonitorSet{CPU: true, Net: true}.String())
	}
	if (MonitorSet{}).String() != "none" {
		t.Fatal("empty set name")
	}
}

func TestStreamSimDynamicBeatsStaticUnderCPULoad(t *testing.T) {
	// Miniature Figure 9: rising linpack load; dynamic stays flat, static
	// lags, no-filter lags worst.
	run := func(policy PolicyKind) time.Duration {
		sim := NewStreamSim(StreamConfig{
			FrameBytes:  1_000_000,
			Interval:    180 * time.Millisecond,
			BaseProcSec: 0.15,
			Policy:      policy,
			Static:      DropVelocity,
			Monitors:    MonitorHybrid,
		}, 1)
		added := 0
		sim.Run(60*time.Second, func(elapsed time.Duration) {
			want := int(elapsed / (10 * time.Second)) // one thread per 10 s
			for added < want {
				sim.Client.Host.AddTask(1)
				added++
			}
		})
		return sim.Client.MeanLatency(20)
	}
	noF := run(PolicyNone)
	static := run(PolicyStatic)
	dynamic := run(PolicyDynamic)
	if !(dynamic < static && static < noF) {
		t.Fatalf("latency ordering wrong: dynamic=%v static=%v none=%v", dynamic, static, noF)
	}
	if dynamic > 500*time.Millisecond {
		t.Fatalf("dynamic filter latency = %v, want near-flat", dynamic)
	}
	if noF < 5*time.Second {
		t.Fatalf("no-filter latency = %v, want badly queued", noF)
	}
}

func TestStreamSimTransformAccounting(t *testing.T) {
	sim := NewStreamSim(StreamConfig{
		FrameBytes:  1_000_000,
		Interval:    200 * time.Millisecond,
		BaseProcSec: 0.05,
		Policy:      PolicyStatic,
		Static:      Quantize,
	}, 1)
	sim.Run(5*time.Second, nil)
	counts := sim.TransformCounts()
	if counts[Quantize] != 25 || len(counts) != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// CompletedBy counts events fully processed no later than t.
func (c *Client) CompletedBy(t time.Time) int {
	n := 0
	for _, done := range c.completions {
		if !done.After(t) {
			n++
		}
	}
	return n
}
