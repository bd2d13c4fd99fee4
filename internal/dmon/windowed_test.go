package dmon

import (
	"math"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/simres"
)

func newWindowedRig(t *testing.T, sampleEvery, window time.Duration) (*WindowedCPU, *clock.Virtual, *simres.Host) {
	t.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	w := NewWindowedCPU(clk, host, sampleEvery, window)
	t.Cleanup(w.Close)
	return w, clk, host
}

func TestWindowedAverageTracksLoadChanges(t *testing.T) {
	w, clk, host := newWindowedRig(t, time.Second, 10*time.Second)
	// Idle for 10 s.
	clk.Advance(10 * time.Second)
	if got := w.Average(); got != 0 {
		t.Fatalf("idle average = %g", got)
	}
	// Load 4 appears; after 5 s the 10 s window holds ~half loaded samples.
	host.AddTask(4)
	clk.Advance(5 * time.Second)
	mid := w.Average()
	if mid < 1 || mid > 3 {
		t.Fatalf("mid-transition average = %g, want ~2", mid)
	}
	// After a full window, the average converges to 4.
	clk.Advance(10 * time.Second)
	if got := w.Average(); math.Abs(got-4) > 0.01 {
		t.Fatalf("converged average = %g, want 4", got)
	}
}

func TestWindowedDefaultIsOneMinute(t *testing.T) {
	w, _, _ := newWindowedRig(t, time.Second, 0)
	if w.Window() != time.Minute {
		t.Fatalf("default window = %v (paper default is 1 minute)", w.Window())
	}
}

func TestSetWindowShrinksHistory(t *testing.T) {
	w, clk, host := newWindowedRig(t, time.Second, 60*time.Second)
	clk.Advance(30 * time.Second) // 30 idle samples
	host.AddTask(2)
	clk.Advance(10 * time.Second) // 10 loaded samples
	long := w.Average()           // ~2*10/41
	w.SetWindow(5 * time.Second)  // only loaded samples remain
	short := w.Average()
	if short <= long {
		t.Fatalf("shrinking the window did not sharpen the average: %g vs %g", short, long)
	}
	if math.Abs(short-2) > 0.01 {
		t.Fatalf("short-window average = %g, want 2", short)
	}
	// Invalid window ignored.
	w.SetWindow(-1)
	if w.Window() != 5*time.Second {
		t.Fatal("negative window accepted")
	}
}

func TestWindowedModuleReportsAverageAsLoadavg(t *testing.T) {
	w, clk, host := newWindowedRig(t, time.Second, 4*time.Second)
	host.AddTask(3)
	clk.Advance(10 * time.Second)
	m := w.Module()
	if m.Name != "CPU_MON" || m.Resource != metrics.CPU {
		t.Fatalf("module = %+v", m)
	}
	samples := m.Collect(clk.Now(), nil)
	if len(samples) != 2 {
		t.Fatalf("samples = %v", samples)
	}
	if samples[0].ID != metrics.LOADAVG || math.Abs(samples[0].Value-3) > 0.01 {
		t.Fatalf("loadavg sample = %+v", samples[0])
	}
	if samples[1].ID != metrics.RUNQUEUE || samples[1].Value != 3 {
		t.Fatalf("runqueue sample = %+v", samples[1])
	}
}

func TestWindowedReplacesStandardCPUModule(t *testing.T) {
	// An application can swap d-mon's CPU module for the windowed one at
	// run time — dproc's extensibility story.
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	d := New("alan", clk, nil) // no standard modules
	w := NewWindowedCPU(clk, host, time.Second, 5*time.Second)
	defer w.Close()
	d.Register(w.Module())
	host.AddTask(2)
	clk.Advance(10 * time.Second)
	samples := d.CollectDue(clk.Now())
	found := false
	for _, s := range samples {
		if s.ID == metrics.LOADAVG && math.Abs(s.Value-2) < 0.01 {
			found = true
		}
	}
	if !found {
		t.Fatalf("windowed loadavg not collected: %v", samples)
	}
}

func TestWindowedCloseStopsSampling(t *testing.T) {
	w, clk, host := newWindowedRig(t, time.Second, 10*time.Second)
	clk.Advance(3 * time.Second)
	w.Close()
	host.AddTask(5)
	clk.Advance(20 * time.Second)
	// All retained samples predate the load; with the timer stopped the
	// window only drains, never picking the new load up.
	if got := w.Average(); got != 0 {
		t.Fatalf("average after Close = %g, want 0 (no new samples)", got)
	}
	if clk.PendingTimers() != 0 {
		t.Fatalf("timer still scheduled after Close")
	}
}

func TestWindowedSamplingCadence(t *testing.T) {
	// Coarser sampling sees fewer points but the same converged average.
	w, clk, host := newWindowedRig(t, 5*time.Second, 30*time.Second)
	host.AddTask(1)
	clk.Advance(60 * time.Second)
	if got := w.Average(); math.Abs(got-1) > 0.01 {
		t.Fatalf("coarse-cadence average = %g", got)
	}
}
