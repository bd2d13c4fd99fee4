package dmon

import (
	"sync"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
)

// WindowedCPU reproduces the paper's CPU_MON precisely: a standard system
// reports load averages over fixed 1/5/15-minute windows, which "may not be
// useful in a fast system with constantly varying CPU load", so dproc's
// module runs its own sampling thread that examines the run queue
// periodically and computes the average over an *application-specified*
// window. Here the kernel thread is a rescheduling clock timer, so it works
// identically under the real and the virtual clock.
type WindowedCPU struct {
	clk clock.Clock
	src Source

	mu          sync.Mutex
	sampleEvery time.Duration
	window      time.Duration
	samples     []timedSample // bounded by window / sampleEvery
	timer       clock.Timer
	closed      bool
}

type timedSample struct {
	at time.Time
	v  float64
}

// DefaultCPUWindow is the paper's default averaging period (1 minute).
const DefaultCPUWindow = time.Minute

// NewWindowedCPU starts the sampling thread. sampleEvery controls how often
// the run queue is examined; window is the averaging period (0 selects the
// 1-minute default).
func NewWindowedCPU(clk clock.Clock, src Source, sampleEvery, window time.Duration) *WindowedCPU {
	if sampleEvery <= 0 {
		sampleEvery = time.Second
	}
	if window <= 0 {
		window = DefaultCPUWindow
	}
	w := &WindowedCPU{clk: clk, src: src, sampleEvery: sampleEvery, window: window}
	w.sample() // take an initial sample so the module is never empty
	w.schedule()
	return w
}

func (w *WindowedCPU) schedule() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.timer = w.clk.AfterFunc(w.sampleEvery, func() {
		w.sample()
		w.schedule()
	})
}

func (w *WindowedCPU) sample() {
	now := w.clk.Now()
	v := w.src.Sample(metrics.RUNQUEUE)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples = append(w.samples, timedSample{at: now, v: v})
	w.pruneLocked(now)
}

func (w *WindowedCPU) pruneLocked(now time.Time) {
	cutoff := now.Add(-w.window)
	i := 0
	for i < len(w.samples) && w.samples[i].at.Before(cutoff) {
		i++
	}
	if i > 0 {
		w.samples = append(w.samples[:0], w.samples[i:]...)
	}
}

// SetWindow changes the averaging period at run time — the knob the paper
// exposes through the control file ("the default period is 1 minute...
// d-mon can change this value").
func (w *WindowedCPU) SetWindow(d time.Duration) {
	if d <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.window = d
	w.pruneLocked(w.clk.Now())
}

// Window returns the current averaging period.
func (w *WindowedCPU) Window() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.window
}

// Average returns the mean run-queue length over the window.
func (w *WindowedCPU) Average() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pruneLocked(w.clk.Now())
	if len(w.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range w.samples {
		sum += s.v
	}
	return sum / float64(len(w.samples))
}

// Close stops the sampling thread.
func (w *WindowedCPU) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
	}
}

// Module adapts the windowed sampler to a d-mon monitoring module: LOADAVG
// becomes the windowed average, RUNQUEUE stays instantaneous.
func (w *WindowedCPU) Module() *Module {
	return &Module{
		Name:     "CPU_MON",
		Resource: metrics.CPU,
		Collect: func(now time.Time, dst []metrics.Sample) []metrics.Sample {
			return append(dst,
				metrics.Sample{ID: metrics.LOADAVG, Value: w.Average(), Time: now},
				metrics.Sample{ID: metrics.RUNQUEUE, Value: w.src.Sample(metrics.RUNQUEUE), Time: now})
		},
	}
}
