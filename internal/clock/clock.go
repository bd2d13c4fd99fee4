// Package clock provides the time source used throughout the dproc
// reproduction. Components take a clock.Clock so that experiments can run
// against a deterministic virtual clock (simulated cluster time, advanced
// explicitly by the harness) while the daemons run against the real clock.
//
// The packages a simulation runs — kecho, core, query, adminproto and
// registry — read one of two named clocks and never the time package's own
// (DESIGN.md §5): the node clock (core.Config.Clock) for what is about
// monitoring time, and the I/O clock (IO) for what is about the sockets.
// TestNoWallClockCalls in this package walks their source and fails on any
// other wall-clock call; its allow-list says why each exception stays.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source shared by real and virtual time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
	// Sleep blocks until the clock has advanced by d.
	Sleep(d time.Duration)
	// AfterFunc schedules f to run once the clock has advanced by d and
	// returns a handle that can cancel the pending call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending callback returned by AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was prevented.
	Stop() bool
}

// IO returns the I/O clock of a transport: the clock its connections read
// deadlines on, and so the clock every socket deadline, wait guard and
// settle window over that transport is computed on. That is the transport's
// own Clock() when it has one — an in-memory transport that evaluates
// deadlines on simulated time — and the real clock otherwise, whatever clock
// the node runs on: a kernel socket reads a deadline as wall time, and a
// virtual now plus five seconds lies decades in its past.
func IO(transport any) Clock {
	if t, ok := transport.(interface{ Clock() Clock }); ok {
		if c := t.Clock(); c != nil {
			return c
		}
	}
	return NewReal()
}

// Wait blocks until clk has advanced by d or stop is closed, reporting
// whether the time passed. A stop cancels the pending timer.
func Wait(clk Clock, d time.Duration, stop <-chan struct{}) bool {
	fired := make(chan struct{})
	t := clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-stop:
		t.Stop()
		return false
	}
}

// Real is the wall-clock implementation backed by the time package.
type Real struct{}

// NewReal returns the wall-clock Clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (*Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (*Real) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements Clock.
func (*Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Virtual is a deterministic clock whose time only moves when Advance (or
// AdvanceTo) is called. Timers fire synchronously inside Advance, in
// timestamp order, which makes simulation runs reproducible bit-for-bit.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	timers  timerHeap
	seq     uint64
	sleeper *sync.Cond
}

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.sleeper = sync.NewCond(&v.mu)
	return v
}

// Epoch is the conventional start time used by the experiment harnesses.
var Epoch = time.Date(2003, time.June, 23, 0, 0, 0, 0, time.UTC)

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep blocks the calling goroutine until another goroutine advances the
// clock past the deadline. It is intended for auxiliary goroutines in tests;
// single-threaded simulation loops should use AfterFunc scheduling instead.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	deadline := v.now.Add(d)
	for v.now.Before(deadline) {
		v.sleeper.Wait()
	}
	v.mu.Unlock()
}

// AfterFunc implements Clock. The callback runs synchronously during the
// Advance call that reaches its deadline.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &virtualTimer{
		clock: v,
		when:  v.now.Add(d),
		seq:   v.seq,
		f:     f,
	}
	v.seq++
	heap.Push(&v.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every timer whose deadline is
// reached, in deadline order. Callbacks run with the clock set to their own
// deadline, so a callback that schedules a new timer observes consistent time.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock forward to instant t (no-op if t is in the past).
func (v *Virtual) AdvanceTo(t time.Time) {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 || v.timers[0].when.After(t) {
			if t.After(v.now) {
				v.now = t
			}
			v.sleeper.Broadcast()
			v.mu.Unlock()
			return
		}
		tm := heap.Pop(&v.timers).(*virtualTimer)
		if tm.when.After(v.now) {
			v.now = tm.when
		}
		f := tm.f
		tm.stopped = true
		v.sleeper.Broadcast()
		v.mu.Unlock()
		if f != nil {
			f()
		}
	}
}

// PendingTimers reports how many timers are scheduled but not yet fired.
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

type virtualTimer struct {
	clock   *Virtual
	when    time.Time
	seq     uint64
	f       func()
	index   int
	stopped bool
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	if t.index >= 0 && t.index < len(t.clock.timers) && t.clock.timers[t.index] == t {
		heap.Remove(&t.clock.timers, t.index)
	}
	return true
}

// timerHeap orders timers by deadline, breaking ties by creation sequence so
// equal-deadline callbacks fire in the order they were scheduled.
type timerHeap []*virtualTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*virtualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
