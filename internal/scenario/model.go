// The model backend: single-threaded virtual-time execution that scales to
// thousands of nodes. Each node runs the real d-mon pipeline (modules over a
// simres host, thresholds, deployed E-code) but the network is a fluid
// model: every publisher owns a netsim uplink, fan-out is serialized
// unicast through it (so within one frozen-clock tick a large fan-out burst
// accumulates backlog and later targets see growing delay — the paper's
// Figure 6 shape emerges from the link model, it is not scripted), and
// subscribers are drain-rate/inbox-capacity fluid queues whose overflow is
// counted as drops. Everything downstream of the scenario seed is
// deterministic: one goroutine, slice iteration only, seeded rand streams.
package scenario

import (
	"math/rand"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/metrics"
	"dproc/internal/netsim"
	"dproc/internal/obs"
	"dproc/internal/simres"
)

// wireOverhead approximates per-event framing cost (header, member ID,
// length prefixes) added to every modeled send.
const wireOverhead = 32

// modelNode is one simulated participant: publisher state (d-mon + uplink)
// and subscriber state (fluid inbox).
type modelNode struct {
	dm   *dmon.DMon
	link *netsim.Link

	queue     float64
	drainRate float64
}

type modelBackend struct {
	s     *Scenario
	down  downSet
	nodes []modelNode

	// partitionK > 0 splits the nodes with index < partitionK from the rest.
	partitionK int

	prop                                           obs.Histogram
	deliveries, drops, skips, processed, bytesSent uint64
}

func newModelBackend(s *Scenario, n, _ int, clk *clock.Virtual, down downSet) (backend, error) {
	// The slow-subscriber choice has its own stream (seed·999983 + n),
	// consumed here once per node and by this backend only.
	slowRng := rand.New(rand.NewSource(s.Seed*999_983 + int64(n)))
	m := &modelBackend{s: s, down: down, nodes: make([]modelNode, n)}
	for i := range m.nodes {
		host := simres.NewHost(NodeName(i), clk, s.Seed+int64(i)*7919)
		dm := dmon.New(NodeName(i), clk, host)
		if err := applyFilters(dm, s); err != nil {
			return nil, err
		}
		drain := s.Subscribers.Rate
		if s.Subscribers.SlowFraction > 0 && slowRng.Float64() < s.Subscribers.SlowFraction {
			drain = s.Subscribers.SlowRate
		}
		m.nodes[i] = modelNode{dm: dm, link: host.Link(), drainRate: drain}
	}
	return m, nil
}

func (m *modelBackend) apply(a Action) {
	switch a.Verb {
	case "partition":
		m.partitionK = int(a.Value)
	case "heal":
		m.partitionK = 0
	case "perturb":
		for i := range m.nodes {
			m.nodes[i].link.SetPerturbation(netsim.Mbps(a.Value))
		}
	}
}

// setDown: a node that leaves loses its queue; it comes back empty, like a
// fresh channel join. Who is down is read from the down-set.
func (m *modelBackend) setDown(i int, down bool) {
	if down {
		m.nodes[i].queue = 0
	}
}

func (m *modelBackend) publish(i int, sizes []int) bool {
	report, _, _ := m.nodes[i].dm.PollOnce()
	if report != nil {
		m.deliver(i, report.Size())
	}
	for _, size := range sizes {
		m.deliver(i, size)
	}
	return report != nil
}

// deliver fans one event of size bytes from publisher pi to every other node
// through pi's fluid uplink, charging each target's inbox.
func (m *modelBackend) deliver(pi, bytes int) {
	link := m.nodes[pi].link
	wb := bytes + wireOverhead
	inbox := float64(m.s.Subscribers.Inbox)
	for ti := range m.nodes {
		if ti == pi {
			continue
		}
		if !m.down.up(ti) || (m.partitionK > 0 && (pi < m.partitionK) != (ti < m.partitionK)) {
			m.skips++
			continue
		}
		m.prop.Record(int64(link.Send(wb)))
		m.deliveries++
		m.bytesSent += uint64(wb)
		if target := &m.nodes[ti]; target.queue+1 > inbox {
			m.drops++
		} else {
			target.queue++
		}
	}
}

// endTick drains the subscriber inboxes at their per-node rates.
func (m *modelBackend) endTick() {
	dt := m.s.Tick.Seconds()
	for i := range m.nodes {
		if !m.down.up(i) {
			continue
		}
		nd := &m.nodes[i]
		drained := min(nd.drainRate*dt, nd.queue)
		nd.queue -= drained
		m.processed += uint64(drained)
	}
}

func (m *modelBackend) harvest(pt *PointResult) {
	pt.Deliveries, pt.Drops, pt.Skips = m.deliveries, m.drops, m.skips
	pt.Processed, pt.BytesSent = m.processed, m.bytesSent
	pt.Prop = m.prop.Snapshot()
}

func (m *modelBackend) close() {}

// applyFilters configures one d-mon per the runfile's [filters] section.
// Collection cadence is the scenario tick except in period mode, where the
// period is the paper's resource update period.
func applyFilters(dm *dmon.DMon, s *Scenario) error {
	period := s.Tick
	if s.Filters.Mode == FilterPeriod {
		period = s.Filters.Period
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := dm.SetPeriod(r, period); err != nil {
			return err
		}
	}
	switch s.Filters.Mode {
	case FilterDiff:
		dm.SetDifferential(s.Filters.DiffPct)
	case FilterEcode:
		if err := dm.DeployFilter(0, true, s.Filters.Source); err != nil {
			return err
		}
	}
	return nil
}
