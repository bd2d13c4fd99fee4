package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual(Epoch)
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvanceMovesTime(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Advance(3 * time.Second)
	if got, want := v.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if got := v.Since(Epoch); got != 3*time.Second {
		t.Fatalf("Since(Epoch) = %v, want 3s", got)
	}
}

func TestVirtualAdvanceToPastIsNoop(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Advance(5 * time.Second)
	v.AdvanceTo(Epoch.Add(time.Second))
	if got, want := v.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v (AdvanceTo must not rewind)", got, want)
	}
}

func TestVirtualNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtual(Epoch).Advance(-time.Second)
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	v := NewVirtual(Epoch)
	var fired []time.Time
	v.AfterFunc(2*time.Second, func() { fired = append(fired, v.Now()) })
	v.Advance(time.Second)
	if len(fired) != 0 {
		t.Fatalf("timer fired early at +1s")
	}
	v.Advance(time.Second)
	if len(fired) != 1 {
		t.Fatalf("timer did not fire at +2s")
	}
	if want := Epoch.Add(2 * time.Second); !fired[0].Equal(want) {
		t.Fatalf("fired at %v, want %v", fired[0], want)
	}
}

func TestAfterFuncOrderIsDeterministic(t *testing.T) {
	v := NewVirtual(Epoch)
	var order []int
	v.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	v.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	v.AfterFunc(2*time.Second, func() { order = append(order, 3) }) // ties fire in schedule order
	v.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestAfterFuncCallbackSeesOwnDeadline(t *testing.T) {
	v := NewVirtual(Epoch)
	var at time.Time
	v.AfterFunc(3*time.Second, func() { at = v.Now() })
	v.Advance(10 * time.Second)
	if want := Epoch.Add(3 * time.Second); !at.Equal(want) {
		t.Fatalf("callback saw clock %v, want %v", at, want)
	}
}

func TestAfterFuncReschedulingChain(t *testing.T) {
	v := NewVirtual(Epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			v.AfterFunc(time.Second, tick)
		}
	}
	v.AfterFunc(time.Second, tick)
	v.Advance(10 * time.Second)
	if count != 5 {
		t.Fatalf("chained ticker fired %d times, want 5", count)
	}
	if v.PendingTimers() != 0 {
		t.Fatalf("PendingTimers = %d, want 0", v.PendingTimers())
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	v := NewVirtual(Epoch)
	fired := false
	tm := v.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	v.Advance(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	v := NewVirtual(Epoch)
	tm := v.AfterFunc(time.Second, func() {})
	v.Advance(2 * time.Second)
	if tm.Stop() {
		t.Fatal("Stop() = true after the timer already fired")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(Epoch)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.Sleep(2 * time.Second)
		close(done)
	}()
	// Give the sleeper a moment to block, then advance in two steps.
	time.Sleep(10 * time.Millisecond)
	v.Advance(time.Second)
	select {
	case <-done:
		t.Fatal("Sleep returned after only 1s of virtual time")
	case <-time.After(20 * time.Millisecond):
	}
	v.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after clock advanced past deadline")
	}
	wg.Wait()
}

func TestVirtualSleepZeroReturnsImmediately(t *testing.T) {
	v := NewVirtual(Epoch)
	v.Sleep(0)
	v.Sleep(-time.Second)
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	t0 := r.Now()
	r.Sleep(time.Millisecond)
	if r.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	fired := make(chan struct{})
	r.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc never fired")
	}
}

func TestPendingTimersCount(t *testing.T) {
	v := NewVirtual(Epoch)
	for i := 0; i < 4; i++ {
		v.AfterFunc(time.Duration(i+1)*time.Second, func() {})
	}
	if got := v.PendingTimers(); got != 4 {
		t.Fatalf("PendingTimers = %d, want 4", got)
	}
	v.Advance(2 * time.Second)
	if got := v.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers after advance = %d, want 2", got)
	}
}

type clocked struct{ c Clock }

func (t clocked) Clock() Clock { return t.c }

func TestIOPrefersTheTransportsClock(t *testing.T) {
	v := NewVirtual(Epoch)
	if got := IO(clocked{v}); got != Clock(v) {
		t.Fatalf("IO(transport with a clock) = %v, want its clock", got)
	}
	for _, tr := range []any{nil, struct{}{}, clocked{nil}} {
		if _, ok := IO(tr).(*Real); !ok {
			t.Fatalf("IO(%#v) = %T, want the real clock", tr, IO(tr))
		}
	}
}

func TestWaitEndsOnTimeOrStop(t *testing.T) {
	v := NewVirtual(Epoch)
	done := make(chan bool)
	go func() { done <- Wait(v, time.Second, nil) }()
	for v.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	if !<-done {
		t.Fatal("Wait reported a stop when the time passed")
	}
	stop := make(chan struct{})
	go func() { done <- Wait(v, time.Second, stop) }()
	for v.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if <-done {
		t.Fatal("Wait reported the time passed when it was stopped")
	}
	if n := v.PendingTimers(); n != 0 {
		t.Fatalf("a stopped Wait left %d timers pending", n)
	}
}
