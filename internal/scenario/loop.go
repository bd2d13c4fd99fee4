// The step loop: everything a sweep point does that does not depend on what
// carries the traffic — the virtual clock, the seeded streams, schedule
// firing, the down-set, the publish order and the shared recovery counters —
// written once over the backend interface. Within a tick the order is fixed:
// advance the clock → fire due schedule actions → roll churn → count rejoins
// → publish (node index order; per node the monitoring report, then the
// workload events) → end the tick (the backend drains or yields).
package scenario

import (
	"math"
	"math/rand"
	"time"

	"dproc/internal/clock"
	"dproc/internal/workload"
)

// backend is what carries a sweep point's traffic: the fluid model
// (model.go) or the real cluster (sockets.go). The loop crosses it per tick
// and per action, never per delivery. It is an interface so the loop can be
// run against a recording fake (loop_test.go), and so a deterministic
// in-memory transport under real core.Nodes (ROADMAP item 3) is a third
// implementation rather than a third loop.
type backend interface {
	// apply executes one schedule verb the loop does not own — every verb
	// but kill and revive.
	apply(a Action)
	// setDown takes node i off the network (down) or brings it back. The
	// loop has already recorded the change in the down-set.
	setDown(i int, down bool)
	// publish runs node i's tick: one d-mon poll, reporting whether it
	// published a monitoring report, then one workload event per size.
	publish(i int, sizes []int) (reported bool)
	// endTick closes a tick after every node has published.
	endTick()
	// harvest adds what the backend counted to pt, appending its own
	// recovery counters after the loop's six.
	harvest(pt *PointResult)
	// close releases everything the backend holds.
	close()
}

// openBackend builds the backend of one sweep point on the loop's clock,
// reading (never writing) the loop's down-set.
type openBackend func(s *Scenario, n, branching int, clk *clock.Virtual, down downSet) (backend, error)

// downSet is the one record of which nodes are off the network: entry i is
// the instant node i comes back — zero while it is up, killed while a
// scheduled kill holds it down until a revive, the end of the down window
// while churn has it out. Only the loop writes it.
type downSet []time.Time

// killed lies beyond any run (a time.Duration cannot span it), so a killed
// node never expires into a churn rejoin.
var killed = clock.Epoch.Add(math.MaxInt64)

func (d downSet) up(i int) bool { return d[i].IsZero() }

// runPoint executes one sweep point over the backend open builds.
//
// Determinism is the contract: every stream below is seeded from the
// scenario seed alone and consumed in an order that does not depend on the
// backend, so two runs of a deterministic backend are byte-identical. The
// harness streams get their own offsets so adding one never perturbs
// another: the workload generator of node i is seeded seed + i·104729 (the
// simres host of node i, built by the backend, follows the SimCluster
// convention seed + i·7919), churn seed·1000003 + n.
func runPoint(s *Scenario, n, branching int, open openBackend) (PointResult, error) {
	clk := clock.NewVirtual(clock.Epoch)
	down := make(downSet, n)
	b, err := open(s, n, branching, clk, down)
	if err != nil {
		return PointResult{}, err
	}
	defer b.close()

	churnRng := rand.New(rand.NewSource(s.Seed*1_000_003 + int64(n)))
	gens := make([]*workload.EventGen, n)
	for i := range gens {
		gens[i] = workload.NewEventGen(workload.EventProfile{
			Rate:          s.Load.Rate,
			Payload:       s.Load.Payload,
			PayloadJitter: s.Load.PayloadJitter,
			BurstEvery:    s.Load.BurstEvery,
			BurstLen:      s.Load.BurstLen,
			BurstFactor:   s.Load.BurstFactor,
		}, s.Seed+int64(i)*104_729, clk.Now())
	}

	steps := int(s.Duration / s.Tick)
	churnEvery := 0
	if s.Churn.Fraction > 0 && s.Churn.Interval > 0 {
		churnEvery = max(1, int(s.Churn.Interval/s.Tick))
	}
	pt := PointResult{Nodes: n, Branching: branching, Duration: s.Duration, Steps: steps}
	var kills, revives, churnLeaves, churnRejoins, partitions, heals uint64

	// An action fires at the first tick boundary >= its At; sortSchedule
	// keeps runfile order among equal offsets.
	schedule := sortSchedule(s.Schedule)
	fired := 0

	for step := 1; step <= steps; step++ {
		clk.Advance(s.Tick)
		now := clk.Now()
		elapsed := time.Duration(step) * s.Tick

		for ; fired < len(schedule) && schedule[fired].At <= elapsed; fired++ {
			a := schedule[fired]
			switch a.Verb {
			case "kill":
				i := nodeIndex(a.Node)
				down[i] = killed
				kills++
				b.setDown(i, true)
			case "revive":
				i := nodeIndex(a.Node)
				down[i] = time.Time{}
				revives++
				b.setDown(i, false)
			case "partition":
				partitions++
				b.apply(a)
			case "heal":
				heals++
				b.apply(a)
			default:
				b.apply(a)
			}
		}

		// Churn boundary: each node that is up leaves with the configured
		// probability. The rng is consumed once for every node whatever its
		// state — up, churned out or killed — so the stream stays aligned
		// across any down-set. A killed node is never churn's to take or to
		// bring back.
		if churnEvery > 0 && step%churnEvery == 0 {
			for i := range down {
				r := churnRng.Float64()
				if r < s.Churn.Fraction && !now.Before(down[i]) {
					down[i] = now.Add(s.Churn.Down)
					churnLeaves++
					b.setDown(i, true)
				}
			}
		}
		// Rejoins: down windows that expired by this tick.
		for i := range down {
			if !down.up(i) && !now.Before(down[i]) {
				down[i] = time.Time{}
				churnRejoins++
				b.setDown(i, false)
			}
		}

		// Publish. A killed node is a dead process and does nothing; a
		// churned-out one is cut off the network but still runs.
		for i, gen := range gens {
			if down[i].Equal(killed) {
				continue
			}
			sizes := gen.Tick(now, s.Tick)
			pt.Events += uint64(len(sizes))
			if b.publish(i, sizes) {
				pt.Reports++
			}
		}
		b.endTick()
	}

	pt.Recovery = []RecoveryCounter{
		{"kills", kills},
		{"revives", revives},
		{"churn_leaves", churnLeaves},
		{"churn_rejoins", churnRejoins},
		{"partitions", partitions},
		{"heals", heals},
	}
	b.harvest(&pt)
	return pt, nil
}

// nodeIndex converts a validated nodeN name back to its index.
func nodeIndex(name string) int {
	idx := 0
	for _, c := range name[len("node"):] {
		idx = idx*10 + int(c-'0')
	}
	return idx
}
