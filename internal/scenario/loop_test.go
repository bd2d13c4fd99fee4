package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
)

// fakeBackend records every call the step loop makes, stamped with the
// loop's virtual second — the substitute the backend interface exists for.
type fakeBackend struct {
	clk *clock.Virtual
	log []string
}

func (f *fakeBackend) logf(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf("t=%d ", f.clk.Now().Sub(clock.Epoch)/time.Second)+fmt.Sprintf(format, args...))
}
func (f *fakeBackend) apply(a Action) { f.logf("apply %s", a.Verb) }
func (f *fakeBackend) setDown(i int, down bool) {
	f.logf("%s %d", map[bool]string{true: "down", false: "up"}[down], i)
}
func (f *fakeBackend) publish(i int, sizes []int) bool {
	f.logf("publish %d events=%d", i, len(sizes))
	return i%2 == 0 // even nodes report
}
func (f *fakeBackend) endTick() { f.logf("end") }
func (f *fakeBackend) harvest(pt *PointResult) {
	pt.Recovery = append(pt.Recovery, RecoveryCounter{"fake", 1})
}
func (f *fakeBackend) close() { f.logf("close") }

func runFake(t *testing.T, s *Scenario, n int) (*fakeBackend, PointResult) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &fakeBackend{}
	pt, err := runPoint(s, n, 0, func(_ *Scenario, _, _ int, clk *clock.Virtual, _ downSet) (backend, error) {
		f.clk = clk
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, pt
}

// TestLoopTickOrder pins what the shared loop promises every backend, on an
// input whose churn is certain (fraction 1): an action whose offset falls
// between ticks fires at the next boundary, actions fire in offset order with
// runfile order breaking ties, and within a tick the order is schedule →
// churn leaves → rejoins → publish (node index order; a killed node is
// skipped, a churned-out one is not) → endTick. A node rejoins exactly once,
// and the six shared counters come out first, in their fixed order.
func TestLoopTickOrder(t *testing.T) {
	s := Defaults()
	s.Name = "order"
	s.Path = "order.toml"
	s.Duration = 4 * time.Second
	s.Topology.Nodes = []int{3}
	s.Load.Rate = 2
	s.Churn = Churn{Interval: 2 * time.Second, Fraction: 1, Down: time.Second}
	s.Schedule = []Action{
		{At: 1500 * time.Millisecond, Verb: "partition", Value: 1, Line: 1},
		{At: time.Second, Verb: "kill", Node: "node2", Line: 2},
		{At: 1500 * time.Millisecond, Verb: "heal", Line: 3},
		{At: 3 * time.Second, Verb: "revive", Node: "node2", Line: 4},
	}
	f, pt := runFake(t, &s, 3)
	want := []string{
		"t=1 down 2", // the kill
		"t=1 publish 0 events=2", "t=1 publish 1 events=2", "t=1 end",
		"t=2 apply partition", "t=2 apply heal", // 1.5s → the 2s boundary, runfile order
		"t=2 down 0", "t=2 down 1", // churn takes every node that is up, never the killed one
		"t=2 publish 0 events=2", "t=2 publish 1 events=2", "t=2 end",
		"t=3 up 2",             // the revive
		"t=3 up 0", "t=3 up 1", // the 1s down windows expired
		"t=3 publish 0 events=2", "t=3 publish 1 events=2", "t=3 publish 2 events=2", "t=3 end",
		"t=4 down 0", "t=4 down 1", "t=4 down 2",
		"t=4 publish 0 events=2", "t=4 publish 1 events=2", "t=4 publish 2 events=2", "t=4 end",
		"t=4 close",
	}
	if !slices.Equal(f.log, want) {
		t.Fatalf("call log:\n%s\nwant:\n%s", strings.Join(f.log, "\n"), strings.Join(want, "\n"))
	}
	if pt.Steps != 4 || pt.Events != 20 || pt.Reports != 6 {
		t.Fatalf("steps %d events %d reports %d, want 4, 20, 6", pt.Steps, pt.Events, pt.Reports)
	}
	wantRC := []RecoveryCounter{
		{"kills", 1}, {"revives", 1}, {"churn_leaves", 5}, {"churn_rejoins", 2},
		{"partitions", 1}, {"heals", 1}, {"fake", 1},
	}
	if !slices.Equal(pt.Recovery, wantRC) {
		t.Fatalf("recovery counters %v, want %v", pt.Recovery, wantRC)
	}
}

// TestLoopChurnDrawsOnePerNode pins the alignment rule of the churn stream
// (seed·1000003 + n): one draw per node per boundary whatever the node's
// state — up, churned out or killed. The reference below draws
// unconditionally; a loop that skipped the draw for a node that is down
// would leave a different set from the second boundary on.
func TestLoopChurnDrawsOnePerNode(t *testing.T) {
	const n = 8
	leaves := func(seed int64) []string {
		s := Defaults()
		s.Name = "draws"
		s.Path = "draws.toml"
		s.Seed = seed
		s.Duration = 4 * time.Second
		s.Topology.Nodes = []int{n}
		// Down outlasts the run: whoever leaves stays out at later boundaries.
		s.Churn = Churn{Interval: time.Second, Fraction: 0.3, Down: time.Minute}
		s.Schedule = []Action{{At: time.Second, Verb: "kill", Node: "node1", Line: 1}}
		f, pt := runFake(t, &s, n)

		rng := rand.New(rand.NewSource(seed*1_000_003 + n))
		out := [n]bool{1: true} // node1 is killed before the first boundary
		want := []string{"t=1 down 1"}
		for tick := 1; tick <= 4; tick++ {
			for i := 0; i < n; i++ {
				if r := rng.Float64(); r < 0.3 && !out[i] {
					out[i] = true
					want = append(want, fmt.Sprintf("t=%d down %d", tick, i))
				}
			}
		}
		var got []string
		for _, l := range f.log {
			if strings.Contains(l, " down ") {
				got = append(got, l)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: nodes taken down %v, want %v", seed, got, want)
		}
		if l := pt.Recovery[2]; l.Name != "churn_leaves" || int(l.Value) != len(want)-1 {
			t.Fatalf("seed %d: %v, want %d churn leaves", seed, l, len(want)-1)
		}
		return got
	}
	a, b := leaves(1), leaves(2)
	if slices.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 produced the same down-set %v", a)
	}
	if len(a) < 3 || len(b) < 3 {
		t.Fatalf("too few leaves to tell a shifted stream apart: %v / %v", a, b)
	}
}
