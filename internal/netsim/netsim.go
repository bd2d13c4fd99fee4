// Package netsim models the cluster interconnect for the deterministic
// experiments: a switched 100 Mbps Fast Ethernet link (the paper's testbed)
// carrying a data stream plus adjustable background perturbation (the
// paper's Iperf UDP load). The model is a fluid queue: traffic drains at the
// link's available rate, a backlog accumulates when the offered load exceeds
// it, and per-message latency is base propagation delay plus queueing delay.
// This reproduces the Figure 10 shape — flat latency until stream + Iperf
// traffic saturates the link, then a sharp blow-up.
package netsim

import (
	"fmt"
	"sync"
	"time"

	"dproc/internal/clock"
)

// Mbps converts megabits/second to bits/second.
func Mbps(v float64) float64 { return v * 1e6 }

// Defaults matching the paper's testbed.
const (
	// DefaultCapacityBps is the 100 Mbps Fast Ethernet link capacity.
	DefaultCapacityBps = 100e6
	// DefaultBaseLatency approximates switched-LAN propagation plus stack
	// traversal.
	DefaultBaseLatency = 200 * time.Microsecond
	// minDrainBps keeps the fluid model finite when perturbation meets or
	// exceeds capacity: a fully saturated link still trickles.
	minDrainBps = 1e5
)

// Link is a simulated full-duplex link direction carrying one host's
// outbound (or inbound) traffic. All methods are safe for concurrent use.
type Link struct {
	clk clock.Clock

	mu          sync.Mutex
	capacityBps float64
	perturbBps  float64
	baseLatency time.Duration
	backlogBits float64
	lastDrain   time.Time

	// Two-bucket window tracking of offered stream traffic for the NETBW /
	// NETAVAIL metrics.
	bucketStart time.Time
	curBits     float64
	prevBits    float64
	prevWindow  float64 // seconds
}

// windowLen is the measurement window for UsedBps.
const windowLen = time.Second

// NewLink creates a link with the given capacity in bits/second. A zero
// capacity selects the 100 Mbps default.
func NewLink(clk clock.Clock, capacityBps float64) *Link {
	if capacityBps <= 0 {
		capacityBps = DefaultCapacityBps
	}
	now := clk.Now()
	return &Link{
		clk:         clk,
		capacityBps: capacityBps,
		baseLatency: DefaultBaseLatency,
		lastDrain:   now,
		bucketStart: now,
	}
}

// CapacityBps returns the configured link capacity.
func (l *Link) CapacityBps() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.capacityBps
}

// SetPerturbation sets the background (Iperf-style) traffic in bits/second.
func (l *Link) SetPerturbation(bps float64) {
	if bps < 0 {
		bps = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked(l.clk.Now())
	l.perturbBps = bps
}

// Perturbation returns the current background traffic in bits/second.
func (l *Link) Perturbation() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.perturbBps
}

// availLocked is the stream's drain rate: capacity minus perturbation,
// floored so the model stays finite.
func (l *Link) availLocked() float64 {
	avail := l.capacityBps - l.perturbBps
	if avail < minDrainBps {
		avail = minDrainBps
	}
	return avail
}

// AvailableBps reports the bandwidth left for the stream after perturbation
// and current stream usage — the NETAVAIL metric a NET_MON would report.
func (l *Link) AvailableBps() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked(l.clk.Now())
	avail := l.capacityBps - l.perturbBps - l.usedLocked()
	if avail < 0 {
		avail = 0
	}
	return avail
}

// drainLocked advances the fluid queue to now.
func (l *Link) drainLocked(now time.Time) {
	dt := now.Sub(l.lastDrain).Seconds()
	if dt <= 0 {
		return
	}
	l.lastDrain = now
	l.backlogBits -= l.availLocked() * dt
	if l.backlogBits < 0 {
		l.backlogBits = 0
	}
	// Roll usage buckets.
	for now.Sub(l.bucketStart) >= windowLen {
		l.prevBits = l.curBits
		l.prevWindow = windowLen.Seconds()
		l.curBits = 0
		l.bucketStart = l.bucketStart.Add(windowLen)
		if now.Sub(l.bucketStart) >= 2*windowLen {
			// Idle gap: fast-forward with empty buckets.
			l.prevBits = 0
			l.bucketStart = now
			break
		}
	}
}

func (l *Link) usedLocked() float64 {
	if l.prevWindow <= 0 {
		elapsed := l.clk.Now().Sub(l.bucketStart).Seconds()
		if elapsed <= 0 {
			return 0
		}
		return l.curBits / elapsed
	}
	return l.prevBits / l.prevWindow
}

// UsedBps reports the stream's recent send rate (last completed window).
func (l *Link) UsedBps() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked(l.clk.Now())
	return l.usedLocked()
}

// Send enqueues a message of the given size and returns its delivery
// latency: base propagation plus the time for the whole backlog (including
// this message) to drain at the available rate.
func (l *Link) Send(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	bits := float64(bytes) * 8
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.Now()
	l.drainLocked(now)
	l.backlogBits += bits
	l.curBits += bits
	queueing := time.Duration(l.backlogBits / l.availLocked() * float64(time.Second))
	return l.baseLatency + queueing
}

// BacklogBits returns the bits currently queued.
func (l *Link) BacklogBits() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked(l.clk.Now())
	return l.backlogBits
}

// Utilization returns (perturbation + recent stream rate) / capacity,
// clamped to [0, 1].
func (l *Link) Utilization() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked(l.clk.Now())
	u := (l.perturbBps + l.usedLocked()) / l.capacityBps
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// RTT estimates the round-trip time a NET_MON would observe: base latency
// both ways, inflated by queueing as the link saturates (an M/M/1-style
// 1/(1-u) factor, capped).
func (l *Link) RTT() time.Duration {
	u := l.Utilization()
	if u > 0.99 {
		u = 0.99
	}
	base := 2 * l.baseLatency
	return time.Duration(float64(base) / (1 - u))
}

// LossRate estimates the UDP loss fraction: zero until high utilization,
// then rising linearly to the overload fraction.
func (l *Link) LossRate() float64 {
	u := l.Utilization()
	if u <= 0.9 {
		return 0
	}
	return (u - 0.9) * 10 * 0.1 // up to 10% at full saturation
}

// String summarizes the link state.
func (l *Link) String() string {
	return fmt.Sprintf("link(cap=%.0fMbps perturb=%.0fMbps used=%.1fMbps backlog=%.0fbits)",
		l.CapacityBps()/1e6, l.Perturbation()/1e6, l.UsedBps()/1e6, l.BacklogBits())
}
