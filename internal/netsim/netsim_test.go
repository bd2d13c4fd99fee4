package netsim

import (
	"testing"
	"time"

	"dproc/internal/clock"
)

func newLink(t *testing.T) (*Link, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	return NewLink(clk, 0), clk
}

func TestDefaults(t *testing.T) {
	l, _ := newLink(t)
	if l.CapacityBps() != 100e6 {
		t.Fatalf("capacity = %g, want 100e6 (paper's Fast Ethernet)", l.CapacityBps())
	}
	if l.Perturbation() != 0 {
		t.Fatal("fresh link has perturbation")
	}
}

func TestMbpsHelper(t *testing.T) {
	if Mbps(30) != 30e6 {
		t.Fatalf("Mbps(30) = %g", Mbps(30))
	}
}

func TestUnloadedLatencyIsBase(t *testing.T) {
	l, _ := newLink(t)
	lat := l.Send(0)
	if lat != DefaultBaseLatency {
		t.Fatalf("empty send latency = %v, want base %v", lat, DefaultBaseLatency)
	}
}

func TestSingleMessageLatency(t *testing.T) {
	l, _ := newLink(t)
	// 1 MB over 100 Mbps = 8e6 bits / 1e8 bps = 80 ms, plus base.
	lat := l.Send(1 << 20)
	want := DefaultBaseLatency + time.Duration(float64(1<<20)*8/100e6*float64(time.Second))
	diff := lat - want
	if diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("latency = %v, want ~%v", lat, want)
	}
}

func TestBacklogDrainsOverTime(t *testing.T) {
	l, clk := newLink(t)
	l.Send(1 << 20) // ~8.4 Mbit backlog
	if l.BacklogBits() == 0 {
		t.Fatal("no backlog right after send")
	}
	clk.Advance(time.Second) // 100 Mbit drained
	if got := l.BacklogBits(); got != 0 {
		t.Fatalf("backlog after 1s = %g, want 0", got)
	}
}

func TestPerturbationSlowsDrain(t *testing.T) {
	l, clk := newLink(t)
	l.SetPerturbation(Mbps(90)) // only 10 Mbps left
	l.Send(10 << 20)            // ~84 Mbit: needs ~8.4 s at 10 Mbps
	clk.Advance(time.Second)
	remaining := l.BacklogBits()
	if remaining < 70e6 || remaining > 80e6 {
		t.Fatalf("backlog after 1s at 10Mbps drain = %g, want ~74e6", remaining)
	}
}

func TestQueueBuildupRaisesLatency(t *testing.T) {
	l, clk := newLink(t)
	l.SetPerturbation(Mbps(80)) // 20 Mbps available for the stream
	// Offer 30 Mbps: 3.75 MB/s in 1 s steps.
	var first, last time.Duration
	for i := 0; i < 10; i++ {
		lat := l.Send(3_750_000)
		if i == 0 {
			first = lat
		}
		last = lat
		clk.Advance(time.Second)
	}
	if last <= first {
		t.Fatalf("overloaded link latency did not grow: first=%v last=%v", first, last)
	}
	if last < 2*time.Second {
		t.Fatalf("after 10s of 1.5x overload, latency = %v, want seconds of queueing", last)
	}
}

func TestStableWhenUnderCapacity(t *testing.T) {
	l, clk := newLink(t)
	l.SetPerturbation(Mbps(60)) // 40 Mbps available, stream needs 30
	var latencies []time.Duration
	for i := 0; i < 20; i++ {
		latencies = append(latencies, l.Send(3_750_000)) // 30 Mbit/s offered
		clk.Advance(time.Second)
	}
	// Steady state: every message drains before the next arrives.
	for i := 5; i < len(latencies); i++ {
		if latencies[i] != latencies[4] {
			t.Fatalf("latency drifted under capacity: %v", latencies)
		}
	}
}

func TestFullSaturationStaysFinite(t *testing.T) {
	l, _ := newLink(t)
	l.SetPerturbation(Mbps(150)) // beyond capacity
	lat := l.Send(1000)
	if lat <= 0 || lat > time.Minute {
		t.Fatalf("saturated link latency = %v, want finite positive", lat)
	}
}

func TestNegativePerturbationClamped(t *testing.T) {
	l, _ := newLink(t)
	l.SetPerturbation(-5)
	if l.Perturbation() != 0 {
		t.Fatal("negative perturbation not clamped")
	}
}

func TestNegativeSizeClamped(t *testing.T) {
	l, _ := newLink(t)
	if lat := l.Send(-100); lat != DefaultBaseLatency {
		t.Fatalf("negative size latency = %v", lat)
	}
}

func TestUsedBpsTracksOfferedRate(t *testing.T) {
	l, clk := newLink(t)
	// 10 sends of 125 kB over 1 s each = 1 Mbps.
	for i := 0; i < 3; i++ {
		l.Send(125_000)
		clk.Advance(time.Second)
	}
	used := l.UsedBps()
	if used < 0.5e6 || used > 1.5e6 {
		t.Fatalf("UsedBps = %g, want ~1e6", used)
	}
}

func TestUsedBpsDecaysWhenIdle(t *testing.T) {
	l, clk := newLink(t)
	l.Send(1_000_000)
	clk.Advance(10 * time.Second)
	if used := l.UsedBps(); used != 0 {
		t.Fatalf("UsedBps after idle gap = %g, want 0", used)
	}
}

func TestAvailableBps(t *testing.T) {
	l, _ := newLink(t)
	l.SetPerturbation(Mbps(40))
	avail := l.AvailableBps()
	if avail != 60e6 {
		t.Fatalf("AvailableBps = %g, want 60e6", avail)
	}
}

func TestUtilizationAndRTT(t *testing.T) {
	l, _ := newLink(t)
	if u := l.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %g", u)
	}
	rttIdle := l.RTT()
	l.SetPerturbation(Mbps(95))
	rttBusy := l.RTT()
	if rttBusy <= rttIdle {
		t.Fatalf("RTT did not grow with utilization: %v vs %v", rttIdle, rttBusy)
	}
	if u := l.Utilization(); u < 0.94 || u > 0.96 {
		t.Fatalf("Utilization = %g, want 0.95", u)
	}
}

func TestLossRateKicksInNearSaturation(t *testing.T) {
	l, _ := newLink(t)
	l.SetPerturbation(Mbps(50))
	if lr := l.LossRate(); lr != 0 {
		t.Fatalf("loss at 50%% utilization = %g", lr)
	}
	l.SetPerturbation(Mbps(100))
	if lr := l.LossRate(); lr <= 0 {
		t.Fatal("no loss at full saturation")
	}
}

func TestFigure10Shape(t *testing.T) {
	// The paper's Figure 10: 3 MB events at ~30 Mbps over a 100 Mbps link.
	// Latency is flat until ~70 Mbps of perturbation, then blows up.
	latencyAt := func(perturbMbps float64) time.Duration {
		clk := clock.NewVirtual(clock.Epoch)
		l := NewLink(clk, 0)
		l.SetPerturbation(Mbps(perturbMbps))
		const eventBytes = 3 << 20 // 3 MB → 25.2 Mbit
		var last time.Duration
		for i := 0; i < 60; i++ {
			last = l.Send(eventBytes)
			clk.Advance(800 * time.Millisecond) // ~31.5 Mbps offered
		}
		return last
	}
	flat := latencyAt(0)
	at60 := latencyAt(60)
	at80 := latencyAt(80)
	at90 := latencyAt(90)
	// Below the knee, latency stays near the unloaded transfer time.
	if at60 > 3*flat {
		t.Fatalf("latency at 60 Mbps (%v) should be near unperturbed (%v)", at60, flat)
	}
	// Past the knee it must blow up by orders of magnitude.
	if at80 < 10*at60 {
		t.Fatalf("no knee: 80 Mbps latency %v vs 60 Mbps %v", at80, at60)
	}
	if at90 < at80 {
		t.Fatalf("latency not monotone past knee: %v vs %v", at90, at80)
	}
}
