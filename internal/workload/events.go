package workload

import (
	"math/rand"
	"time"
)

// EventProfile describes a deterministic synthetic event load: a steady
// per-generator rate of fixed-size events, optional seeded payload jitter,
// and an optional periodic burst schedule. It is the scenario harness's
// load knob — every rate in a runfile's [load] section maps onto one of
// these fields.
type EventProfile struct {
	// Rate is the steady event rate in events/second. Zero disables the
	// generator (Tick always returns nothing).
	Rate float64
	// Payload is the nominal event payload in bytes.
	Payload int
	// PayloadJitter varies each event's payload by ±(jitter · Payload),
	// drawn from the generator's seeded stream. Zero emits exact sizes.
	PayloadJitter float64
	// BurstEvery starts a burst window every interval (measured from the
	// generator's start time). Zero disables bursts.
	BurstEvery time.Duration
	// BurstLen is how long each burst window lasts.
	BurstLen time.Duration
	// BurstFactor multiplies Rate inside a burst window.
	BurstFactor float64
}

// EventGen deterministically converts elapsed (virtual or real) time into a
// sequence of event payload sizes. Two generators built from the same
// profile, seed and start time produce byte-identical sequences for the
// same Tick call pattern — the property the scenario harness's
// reproducibility guarantee rests on. Not safe for concurrent use; each
// simulated publisher owns one.
type EventGen struct {
	p     EventProfile
	rng   *rand.Rand
	start time.Time
	carry float64
	buf   []int
}

// NewEventGen builds a generator for the profile whose randomness (payload
// jitter) is drawn from seed. start anchors the burst schedule; pass the
// clock's current time.
func NewEventGen(p EventProfile, seed int64, start time.Time) *EventGen {
	if p.BurstFactor <= 0 {
		p.BurstFactor = 1
	}
	if p.Payload < 0 {
		p.Payload = 0
	}
	return &EventGen{p: p, rng: rand.New(rand.NewSource(seed)), start: start}
}

// rateAt returns the effective rate at instant t, honoring the burst
// schedule.
func (g *EventGen) rateAt(t time.Time) float64 {
	r := g.p.Rate
	if r <= 0 {
		return 0
	}
	if g.p.BurstEvery > 0 && g.p.BurstLen > 0 {
		phase := t.Sub(g.start) % g.p.BurstEvery
		if phase < 0 {
			phase += g.p.BurstEvery
		}
		if phase < g.p.BurstLen {
			r *= g.p.BurstFactor
		}
	}
	return r
}

// Tick returns the payload sizes of the events due in the dt window ending
// at now. Fractional events carry over to the next tick, so long runs
// converge on the exact configured rate. The returned slice is reused by
// the next Tick call; consume it before calling again.
func (g *EventGen) Tick(now time.Time, dt time.Duration) []int {
	if dt <= 0 {
		return nil
	}
	// Rate is sampled at the window start so a burst boundary lands on a
	// whole tick — deterministic regardless of tick size.
	due := g.carry + g.rateAt(now.Add(-dt))*dt.Seconds()
	n := int(due)
	g.carry = due - float64(n)
	if n == 0 {
		return nil
	}
	g.buf = g.buf[:0]
	for i := 0; i < n; i++ {
		size := g.p.Payload
		if g.p.PayloadJitter > 0 && size > 0 {
			size = int(float64(size) * (1 + g.p.PayloadJitter*(2*g.rng.Float64()-1)))
			if size < 1 {
				size = 1
			}
		}
		g.buf = append(g.buf, size)
	}
	return g.buf
}
