package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// The closed loop. One generator goroutine emits events and keeps at most a
// window of them outstanding against the slowest healthy consumer; it waits
// for consumers on a channel, never with time.Sleep (which quantises to
// about a millisecond here). A d-mon node publishes on its own timer and a
// reader waits for the value — callers that wait — so the load a slow
// system receives falls with its speed, and "deliveries per second at zero
// loss" is a continuous number rather than a rung on a rate ladder.

// consumer is one healthy subscriber's delivery state. Its handler (one
// goroutine at a time) calls loop.delivered; the generator reads the
// counters.
type consumer struct {
	recv atomic.Uint64 // deliveries seen, good or bad — the flow-control count
	bad  atomic.Uint64 // deliveries that failed the oracle
	done atomic.Int64  // ns since loop.epoch of the last delivery (probe phase only)
	_    [40]byte      // keep neighbouring consumers off one cache line
}

// errStalled reports that the consumers stopped making progress with events
// outstanding: something was lost.
var errStalled = errors.New("bench: consumers stalled with events outstanding (loss)")

type loop struct {
	// emit publishes event number seq (1-based, contiguous).
	emit      func(seq uint64) error
	consumers []*consumer

	epoch    time.Time
	tick     chan struct{} // capacity 1: "some consumer advanced"
	sigEvery atomic.Uint64 // a consumer ticks every sigEvery-th delivery
	probing  atomic.Bool
	sent     atomic.Uint64 // written by the generator only

	abort     chan struct{}
	abortOnce sync.Once

	// waitNs accumulates the time the generator spent blocked on consumers
	// in saturate: a high share means the system, not the generator, set
	// the rate.
	waitNs int64

	tr *tracer // nil when untraced
	// emitNs and probeEmitNs hold the duration of every emit call a traced
	// run made while saturating and while probing, up to their capacity.
	emitNs, probeEmitNs []int64
}

// traceWith attaches a tracer and aligns the loop's clock with it.
func (l *loop) traceWith(tr *tracer) {
	if tr != nil {
		l.tr, l.epoch = tr, tr.epoch
		l.emitNs = make([]int64, 0, 1<<18)
		l.probeEmitNs = make([]int64, 0, 1<<16)
	}
}

func newLoop(n int, emit func(uint64) error) *loop {
	l := &loop{
		emit:  emit,
		epoch: time.Now(),
		// One slot: a tick is a level ("go look again"), not a count.
		tick:  make(chan struct{}, 1),
		abort: make(chan struct{}),
	}
	l.sigEvery.Store(1)
	for i := 0; i < n; i++ {
		l.consumers = append(l.consumers, &consumer{})
	}
	return l
}

// now is the loop's monotonic clock in ns since epoch.
func (l *loop) now() int64 { return int64(time.Since(l.epoch)) }

// delivered is called by consumer c's handler once per event, after the
// oracle ran. Every delivery advances the flow-control count, so a corrupt
// event is a counted failure rather than a hang.
func (l *loop) delivered(c *consumer, ok bool) {
	if !ok {
		c.bad.Add(1)
	}
	if l.probing.Load() {
		c.done.Store(l.now())
	}
	n := c.recv.Add(1)
	if n%l.sigEvery.Load() == 0 {
		select {
		case l.tick <- struct{}{}:
		default:
		}
	}
}

// floor is the slowest consumer's delivery count.
func (l *loop) floor() uint64 {
	min := l.consumers[0].recv.Load()
	for _, c := range l.consumers[1:] {
		if v := c.recv.Load(); v < min {
			min = v
		}
	}
	return min
}

func (l *loop) totalRecv() uint64 {
	var n uint64
	for _, c := range l.consumers {
		n += c.recv.Load()
	}
	return n
}

func (l *loop) totalBad() uint64 {
	var n uint64
	for _, c := range l.consumers {
		n += c.bad.Load()
	}
	return n
}

// waitFloor blocks until every consumer has seen at least target events.
func (l *loop) waitFloor(target uint64) error {
	for l.floor() < target {
		select {
		case <-l.tick:
		case <-l.abort:
			return errStalled
		}
	}
	return nil
}

// watch closes l.abort when neither the generator nor any consumer moved
// for stall; it returns when stop closes. Run it only while a phase runs.
func (l *loop) watch(stop <-chan struct{}, stall time.Duration) {
	const step = 250 * time.Millisecond
	t := time.NewTicker(step)
	defer t.Stop()
	var last uint64
	var idle time.Duration
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := l.sent.Load() + l.totalRecv()
			if cur != last {
				last, idle = cur, 0
				continue
			}
			if idle += step; idle >= stall {
				l.abortOnce.Do(func() { close(l.abort) })
				return
			}
		}
	}
}

// phase runs f under the stall watchdog.
func (l *loop) phase(f func() error) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.watch(stop, 3*time.Second)
	}()
	err := f()
	close(stop)
	wg.Wait()
	return err
}

// send emits the next event.
func (l *loop) send() error {
	seq := l.sent.Load() + 1
	if l.tr != nil {
		return l.sendTraced(seq)
	}
	if err := l.emit(seq); err != nil {
		return err
	}
	l.sent.Store(seq)
	return nil
}

// satResult is one saturation part.
type satResult struct {
	elapsed    time.Duration // first emit → last delivery
	deliveries uint64        // handler completions
	wait       time.Duration // of elapsed, spent blocked on the window
}

// saturate emits as fast as the window allows for d, then waits for the
// pipeline to empty: it starts and ends drained, so what it counts is exactly
// the events it emitted, delivered to every consumer.
func (l *loop) saturate(d time.Duration, window int) (satResult, error) {
	w := uint64(window)
	every := w / 4
	if every == 0 {
		every = 1
	}
	l.probing.Store(false)
	l.sigEvery.Store(every)
	start := time.Now()
	recv0, wait0 := l.totalRecv(), l.waitNs
	floor := l.floor()
	for n := 0; ; n++ {
		if l.sent.Load()-floor >= w {
			if floor = l.floor(); l.sent.Load()-floor >= w {
				t0 := time.Now()
				err := l.waitFloor(l.sent.Load() - w + 1)
				l.waitNs += int64(time.Since(t0))
				if err != nil {
					return satResult{}, err
				}
				floor = l.floor()
			}
		}
		if err := l.send(); err != nil {
			return satResult{}, err
		}
		// Reading the clock every event would be a visible share of a
		// 64-byte publish; every 32nd bounds the overshoot to microseconds.
		if n&31 == 31 && time.Since(start) >= d {
			break
		}
	}
	if err := l.drain(); err != nil {
		return satResult{}, err
	}
	return satResult{
		elapsed:    time.Since(start),
		deliveries: l.totalRecv() - recv0,
		wait:       time.Duration(l.waitNs - wait0),
	}, nil
}

// drain waits for every emitted event to reach every consumer.
func (l *loop) drain() error {
	l.sigEvery.Store(1)
	return l.waitFloor(l.sent.Load())
}

// probe runs window-1 rounds for d: emit one event, wait for the last
// consumer's handler to return, record emit call → that return. The
// pipeline must be drained first.
func (l *loop) probe(d time.Duration, out []int64) ([]int64, error) {
	l.sigEvery.Store(1)
	l.probing.Store(true)
	defer l.probing.Store(false)
	start := time.Now()
	for time.Since(start) < d {
		t0 := l.now()
		if err := l.send(); err != nil {
			return out, err
		}
		if err := l.waitFloor(l.sent.Load()); err != nil {
			return out, err
		}
		var last int64
		for _, c := range l.consumers {
			if v := c.done.Load(); v > last {
				last = v
			}
		}
		out = append(out, last-t0)
	}
	return out, nil
}
