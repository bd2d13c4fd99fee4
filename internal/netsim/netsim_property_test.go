package netsim

import (
	"math/rand"
	"testing"
	"time"

	"dproc/internal/clock"
)

// TestInvariantsUnderRandomTraffic drives a link with random sends,
// perturbation changes and clock advances, checking the fluid-queue
// invariants after every operation.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	clk := clock.NewVirtual(clock.Epoch)
	l := NewLink(clk, 0)
	var lastBacklogAfterAdvance float64
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0:
			lat := l.Send(rng.Intn(5 << 20))
			if lat < DefaultBaseLatency {
				t.Fatalf("step %d: latency %v below base", step, lat)
			}
		case 1:
			l.SetPerturbation(float64(rng.Intn(120)) * 1e6)
		case 2:
			before := l.BacklogBits()
			clk.Advance(time.Duration(rng.Intn(2000)) * time.Millisecond)
			after := l.BacklogBits()
			if after > before {
				t.Fatalf("step %d: backlog grew while idle: %g -> %g", step, before, after)
			}
			lastBacklogAfterAdvance = after
		case 3:
			if b := l.BacklogBits(); b < 0 {
				t.Fatalf("step %d: negative backlog %g", step, b)
			}
			if u := l.Utilization(); u < 0 || u > 1 {
				t.Fatalf("step %d: utilization %g out of range", step, u)
			}
			if a := l.AvailableBps(); a < 0 || a > l.CapacityBps() {
				t.Fatalf("step %d: available %g out of [0, capacity]", step, a)
			}
			if l.RTT() <= 0 {
				t.Fatalf("step %d: non-positive RTT", step)
			}
			if lr := l.LossRate(); lr < 0 || lr > 0.1+1e-9 {
				t.Fatalf("step %d: loss rate %g out of range", step, lr)
			}
		}
	}
	_ = lastBacklogAfterAdvance
	// Long idle fully drains.
	clk.Advance(time.Hour)
	if b := l.BacklogBits(); b != 0 {
		t.Fatalf("backlog after an idle hour = %g", b)
	}
}

// TestLatencyMonotoneInPerturbation checks the core Figure 10 property at
// the model level: for a fixed offered stream, steady-state latency never
// decreases as perturbation grows.
func TestLatencyMonotoneInPerturbation(t *testing.T) {
	steady := func(perturbMbps float64) time.Duration {
		clk := clock.NewVirtual(clock.Epoch)
		l := NewLink(clk, 0)
		l.SetPerturbation(Mbps(perturbMbps))
		var last time.Duration
		for i := 0; i < 40; i++ {
			last = l.Send(3 << 20)
			clk.Advance(800 * time.Millisecond)
		}
		return last
	}
	prev := time.Duration(-1)
	for p := 0.0; p <= 95; p += 5 {
		lat := steady(p)
		if lat < prev {
			t.Fatalf("latency decreased at %g Mbps: %v < %v", p, lat, prev)
		}
		prev = lat
	}
}

// TestConservation: the backlog never holds more than was sent, for random
// traffic.
func TestConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := clock.NewVirtual(clock.Epoch)
	l := NewLink(clk, 0)
	l.SetPerturbation(Mbps(90)) // slow drain so backlog is visible
	var sentBits float64
	for i := 0; i < 200; i++ {
		n := rng.Intn(1 << 20)
		l.Send(n)
		sentBits += float64(n) * 8
		clk.Advance(100 * time.Millisecond)
	}
	if l.BacklogBits() > sentBits {
		t.Fatalf("backlog %g exceeds everything ever sent %g", l.BacklogBits(), sentBits)
	}
}
