package scenario

import (
	"fmt"
	"time"

	"dproc/internal/obs"
)

// PointResult is the harvest of one sweep point: the counters the loop and
// every backend fill, plus the propagation-delay distribution of a backend
// that can stand behind one. All values derive from the run itself (no
// wall-clock input), which is what makes the model backend's reports
// byte-reproducible under a fixed seed.
type PointResult struct {
	// Nodes is the sweep-point node count.
	Nodes int
	// Branching is the sweep point's relay-tree branching factor (0 = flat
	// full mesh).
	Branching int
	// Steps is how many poll ticks ran.
	Steps int
	// Duration is the virtual run length.
	Duration time.Duration

	// Reports counts monitoring reports published by d-mons (post-filter).
	Reports uint64
	// Events counts synthetic workload events published.
	Events uint64
	// Deliveries counts per-subscriber event deliveries.
	Deliveries uint64
	// Drops counts deliveries lost to full subscriber inboxes.
	Drops uint64
	// Skips counts deliveries not attempted because the target was down,
	// churned out or across a partition.
	Skips uint64
	// Processed counts events drained by subscribers.
	Processed uint64
	// BytesSent counts payload bytes pushed onto the network.
	BytesSent uint64

	// Prop is the propagation-delay distribution in nanoseconds — the model
	// backend's analytic one; the sockets backend takes no samples (see
	// report.go for what that does to the artifacts).
	Prop obs.Snapshot

	// Recovery holds the fault/recovery counters in a fixed order — the
	// loop's six, then the backend's own (slice, not map, so report rendering
	// is deterministic).
	Recovery []RecoveryCounter
}

// RecoveryCounter is one named fault/recovery counter.
type RecoveryCounter struct {
	Name  string
	Value uint64
}

// Throughput returns delivered events per second of run time.
func (p *PointResult) Throughput() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Deliveries) / p.Duration.Seconds()
}

// PublishRate returns published events (reports + workload) per second.
func (p *PointResult) PublishRate() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Reports+p.Events) / p.Duration.Seconds()
}

// RunResult is a full scenario execution: one PointResult per sweep point,
// in runfile order.
type RunResult struct {
	Scenario *Scenario
	Points   []PointResult
}

// Run executes every sweep point of the scenario on the backend its engine
// names. logf (may be nil) receives one progress line per sweep point.
func Run(s *Scenario, logf func(format string, args ...any)) (*RunResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var open openBackend
	switch s.Engine {
	case EngineModel:
		open = newModelBackend
	case EngineSockets:
		open = newSocketsBackend
	default:
		// Validate rejects this; keep the error for direct callers.
		return nil, &ParseError{File: s.Path, Section: "scenario", Key: "engine", Msg: "unknown engine " + s.Engine}
	}
	res := &RunResult{Scenario: s}
	// The sweep is the cross-product of the node axis and the branching axis
	// (flat-only when no branching entries are declared), in runfile order.
	branchings := s.Topology.Branchings
	if len(branchings) == 0 {
		branchings = []int{0}
	}
	for _, n := range s.Topology.Nodes {
		for _, b := range branchings {
			logf("scenario %s: engine=%s nodes=%d branching=%d duration=%s", s.Name, s.Engine, n, b, s.Duration)
			pt, err := runPoint(s, n, b, open)
			if err != nil {
				return nil, err
			}
			done := fmt.Sprintf("  done: %d reports, %d deliveries, %d drops", pt.Reports, pt.Deliveries, pt.Drops)
			if pt.Prop.Count > 0 {
				done += fmt.Sprintf(", prop p99 %s", time.Duration(pt.Prop.Quantile(0.99)))
			}
			logf("%s", done)
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}
