package workload

import (
	"testing"
	"time"

	"dproc/internal/clock"
)

func TestEventGenSteadyRate(t *testing.T) {
	start := clock.Epoch
	g := NewEventGen(EventProfile{Rate: 3, Payload: 100}, 1, start)
	now := start
	total, bytes := 0, 0
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		sizes := g.Tick(now, time.Second)
		total += len(sizes)
		for _, n := range sizes {
			bytes += n
		}
	}
	if total != 30 || bytes != 3000 {
		t.Fatalf("10s at 3/s produced %d events of %d bytes, want 30 of 3000", total, bytes)
	}
}

func TestEventGenFractionalCarry(t *testing.T) {
	start := clock.Epoch
	g := NewEventGen(EventProfile{Rate: 0.25, Payload: 10}, 1, start)
	now := start
	total := 0
	for i := 0; i < 40; i++ {
		now = now.Add(time.Second)
		total += len(g.Tick(now, time.Second))
	}
	// 40s at 0.25/s — the fractional carry must converge on the exact rate.
	if total != 10 {
		t.Fatalf("carry drifted: %d events, want 10", total)
	}
}

func TestEventGenBursts(t *testing.T) {
	start := clock.Epoch
	p := EventProfile{Rate: 2, Payload: 10, BurstEvery: 10 * time.Second, BurstLen: 2 * time.Second, BurstFactor: 5}
	g := NewEventGen(p, 1, start)
	now := start
	perTick := make([]int, 10)
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		perTick[i] = len(g.Tick(now, time.Second))
	}
	// Ticks 1-2 cover the burst window (rate 10), the rest run at rate 2.
	if perTick[0] != 10 || perTick[1] != 10 {
		t.Fatalf("burst ticks: %v", perTick)
	}
	if perTick[5] != 2 {
		t.Fatalf("steady tick: %v", perTick)
	}
}

func TestEventGenDeterministicJitter(t *testing.T) {
	start := clock.Epoch
	p := EventProfile{Rate: 5, Payload: 100, PayloadJitter: 0.5}
	run := func(seed int64) []int {
		g := NewEventGen(p, seed, start)
		now := start
		var sizes []int
		for i := 0; i < 5; i++ {
			now = now.Add(time.Second)
			sizes = append(sizes, append([]int(nil), g.Tick(now, time.Second)...)...)
		}
		return sizes
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 50 || a[i] > 150 {
			t.Fatalf("jitter out of ±50%% range: %d", a[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical payload streams")
	}
}

func TestEventGenZeroRate(t *testing.T) {
	g := NewEventGen(EventProfile{Rate: 0, Payload: 10}, 1, clock.Epoch)
	if got := g.Tick(clock.Epoch.Add(time.Second), time.Second); len(got) != 0 {
		t.Fatalf("zero rate emitted %d events", len(got))
	}
}
