package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/ecode"
	"dproc/internal/query"
	"dproc/internal/tsdb"
)

// Limits the validator enforces. The sockets backend runs real goroutines
// and file descriptors per node; the model backend is single-threaded but
// still O(nodes²) per tick at full mesh.
const (
	maxSocketNodes = 64
	maxModelNodes  = 5000
	maxSweepPoints = 16
)

// Validate checks cross-field consistency: engine/key combos, verb
// applicability, sweep-axis bounds, node-name targets, and that any E-code
// filter source actually compiles. Errors carry the runfile line where the
// offending value was declared when one is known.
func (s *Scenario) Validate() error {
	fail := func(section, key, format string, args ...any) error {
		return &ParseError{File: s.Path, Section: section, Key: key, Msg: fmt.Sprintf(format, args...)}
	}

	if s.Name == "" {
		return fail("scenario", "name", "required key missing")
	}
	if strings.ContainsAny(s.Name, "/\\ ") {
		return fail("scenario", "name", "must be a plain file-name token, got %q", s.Name)
	}

	switch s.Engine {
	case EngineModel, EngineSockets:
	default:
		return fail("scenario", "engine", "unknown engine %q (want %q or %q)", s.Engine, EngineModel, EngineSockets)
	}

	if s.Duration <= 0 {
		return fail("scenario", "duration", "must be positive, got %v", s.Duration)
	}
	if s.Tick <= 0 {
		return fail("scenario", "tick", "must be positive, got %v", s.Tick)
	}
	if s.Tick > s.Duration {
		return fail("scenario", "tick", "tick %v exceeds duration %v", s.Tick, s.Duration)
	}
	if steps := s.Duration / s.Tick; steps > 1_000_000 {
		return fail("scenario", "tick", "duration/tick = %d steps; cap is 1000000", steps)
	}

	if s.DataDir != "" && s.Engine != EngineSockets {
		return fail("scenario", "data_dir", "durable stores need engine = \"sockets\" (the model engine has no disk)")
	}
	if s.Writers < 0 {
		return fail("scenario", "writers", "must be >= 0 (0 = kecho's GOMAXPROCS-scaled default), got %d", s.Writers)
	}
	if s.Writers > 0 && s.Engine != EngineSockets {
		return fail("scenario", "writers", "writer pools belong to the real transport; use engine = \"sockets\"")
	}
	switch s.Dispatch {
	case "", "poll", "event":
	default:
		return fail("scenario", "dispatch", "unknown dispatch %q (want \"poll\" or \"event\")", s.Dispatch)
	}
	if s.Dispatch == "event" && s.Engine != EngineSockets {
		return fail("scenario", "dispatch", "event-driven dispatch runs on the real transport; use engine = \"sockets\"")
	}

	// Topology / sweep axis.
	if len(s.Topology.Nodes) == 0 {
		return fail("topology", "nodes", "empty sweep axis")
	}
	if len(s.Topology.Nodes) > maxSweepPoints {
		return fail("topology", "nodes", "%d sweep points; cap is %d", len(s.Topology.Nodes), maxSweepPoints)
	}
	maxNodes := maxModelNodes
	if s.Engine == EngineSockets {
		maxNodes = maxSocketNodes
	}
	minN := s.Topology.Nodes[0]
	for _, n := range s.Topology.Nodes {
		if n < 2 {
			return fail("topology", "nodes", "each sweep point needs at least 2 nodes, got %d", n)
		}
		if n > maxNodes {
			return fail("topology", "nodes", "%d nodes exceeds the %s engine's cap of %d", n, s.Engine, maxNodes)
		}
		if n < minN {
			minN = n
		}
	}
	if len(s.Topology.Branchings) > maxSweepPoints {
		return fail("topology", "branching", "%d sweep points; cap is %d", len(s.Topology.Branchings), maxSweepPoints)
	}
	for _, b := range s.Topology.Branchings {
		if b < 0 {
			return fail("topology", "branching", "must be >= 0 (0 = flat full mesh), got %d", b)
		}
		if b > 0 && s.Engine != EngineSockets {
			return fail("topology", "branching", "relay trees run on the real transport; use engine = \"sockets\"")
		}
	}
	if len(s.Topology.Nodes)*max(1, len(s.Topology.Branchings)) > maxSweepPoints {
		return fail("topology", "branching", "nodes × branching = %d sweep points; cap is %d",
			len(s.Topology.Nodes)*len(s.Topology.Branchings), maxSweepPoints)
	}

	// Load.
	if s.Load.Rate < 0 {
		return fail("load", "rate", "must be >= 0, got %v", s.Load.Rate)
	}
	if s.Load.Payload < 0 {
		return fail("load", "payload", "must be >= 0, got %d", s.Load.Payload)
	}
	if s.Load.PayloadJitter < 0 || s.Load.PayloadJitter > 1 {
		return fail("load", "payload_jitter", "must be in [0,1], got %v", s.Load.PayloadJitter)
	}
	if s.Load.BurstEvery < 0 || s.Load.BurstLen < 0 {
		return fail("load", "burst_every", "burst windows must be >= 0")
	}
	if (s.Load.BurstEvery > 0) != (s.Load.BurstLen > 0) {
		return fail("load", "burst_len", "burst_every and burst_len must be set together")
	}
	if s.Load.BurstLen > s.Load.BurstEvery {
		return fail("load", "burst_len", "burst_len %v exceeds burst_every %v", s.Load.BurstLen, s.Load.BurstEvery)
	}
	if s.Load.BurstFactor <= 0 {
		return fail("load", "burst_factor", "must be > 0, got %v", s.Load.BurstFactor)
	}

	// Filters.
	switch s.Filters.Mode {
	case FilterNone, FilterPeriod, FilterDiff:
	case FilterEcode:
		if strings.TrimSpace(s.Filters.Source) == "" {
			return fail("filters", "source", "mode = \"ecode\" needs a source")
		}
		if _, err := ecode.CompileCached(s.Filters.Source, dmon.FilterSpec()); err != nil {
			return fail("filters", "source", "E-code does not compile: %v", err)
		}
	default:
		return fail("filters", "mode", "unknown mode %q (want none, period, diff or ecode)", s.Filters.Mode)
	}
	if s.Filters.Mode == FilterPeriod && s.Filters.Period <= 0 {
		return fail("filters", "period", "must be positive, got %v", s.Filters.Period)
	}
	if s.Filters.Mode == FilterDiff && (s.Filters.DiffPct <= 0 || s.Filters.DiffPct > 100) {
		return fail("filters", "diff_pct", "must be in (0,100], got %v", s.Filters.DiffPct)
	}

	// Subscribers.
	if s.Subscribers.Rate <= 0 {
		return fail("subscribers", "rate", "must be > 0, got %v", s.Subscribers.Rate)
	}
	if s.Subscribers.Inbox <= 0 {
		return fail("subscribers", "inbox", "must be > 0, got %d", s.Subscribers.Inbox)
	}
	if s.Subscribers.SlowFraction < 0 || s.Subscribers.SlowFraction > 1 {
		return fail("subscribers", "slow_fraction", "must be in [0,1], got %v", s.Subscribers.SlowFraction)
	}
	if s.Subscribers.SlowFraction > 0 && s.Subscribers.SlowRate <= 0 {
		return fail("subscribers", "slow_rate", "must be > 0 when slow_fraction is set, got %v", s.Subscribers.SlowRate)
	}
	if s.Subscribers.SlowFraction > 0 && s.Engine != EngineModel {
		return fail("subscribers", "slow_fraction", "slow-subscriber drain rates are part of the model engine's fluid queues; use engine = \"model\"")
	}

	// Churn.
	if s.Churn.Interval < 0 || s.Churn.Down < 0 {
		return fail("churn", "interval", "durations must be >= 0")
	}
	if s.Churn.Fraction < 0 || s.Churn.Fraction > 1 {
		return fail("churn", "fraction", "must be in [0,1], got %v", s.Churn.Fraction)
	}
	if s.Churn.Fraction > 0 && s.Churn.Interval == 0 {
		return fail("churn", "interval", "fraction is set but interval is zero")
	}
	if s.Churn.Fraction > 0 && s.Churn.Down == 0 {
		return fail("churn", "down", "fraction is set but down time is zero")
	}

	// Schedule.
	for _, a := range s.Schedule {
		afail := func(format string, args ...any) error {
			return &ParseError{File: s.Path, Line: a.Line, Section: "schedule", Key: "at", Msg: fmt.Sprintf(format, args...)}
		}
		if a.At > s.Duration {
			return afail("offset %v is beyond the run duration %v", a.At, s.Duration)
		}
		switch a.Verb {
		case "kill", "revive", "stall", "unstall":
			if err := checkNodeTarget(a.Node, minN); err != nil {
				return afail("%v", err)
			}
			if a.Verb == "stall" || a.Verb == "unstall" {
				if s.Engine != EngineSockets {
					return afail("%s stalls the real transport's writes; it needs engine = \"sockets\"", a.Verb)
				}
			}
		case "partition":
			k := int(a.Value)
			if k <= 0 || k >= minN {
				return afail("partition size %d must be in (0,%d) for the smallest sweep point", k, minN)
			}
		case "heal":
		case "perturb":
			if s.Engine != EngineModel {
				return afail("perturb shapes the model engine's fluid links; it needs engine = \"model\"")
			}
		case "queryall":
			if s.Engine != EngineSockets {
				return afail("queryall scatter-gathers over real admin sockets; it needs engine = \"sockets\"")
			}
			q, err := tsdb.ParseQuery(a.Arg)
			if err != nil {
				return afail("bad queryall query: %v", err)
			}
			// Normalize against the virtual epoch the step loop starts from, so a
			// query the coordinator would reject fails validation, not the run.
			if _, err := query.Normalize(q, clock.Epoch.Add(a.At)); err != nil {
				return afail("bad queryall query: %v", err)
			}
		case "disk":
			if s.Engine != EngineSockets {
				return afail("disk faults need engine = \"sockets\" (the model engine has no disk)")
			}
			if s.DataDir == "" {
				return afail("disk faults need data_dir set (nodes have no store otherwise)")
			}
			if err := checkNodeTarget(a.Node, minN); err != nil {
				return afail("%v", err)
			}
		}
	}
	return nil
}

// checkNodeTarget verifies a node name exists in every sweep point (i.e. its
// index is below the smallest node count).
func checkNodeTarget(name string, minNodes int) error {
	if !strings.HasPrefix(name, "node") {
		return fmt.Errorf("unknown node %q (nodes are named node0..node%d)", name, minNodes-1)
	}
	idx, err := strconv.Atoi(name[len("node"):])
	if err != nil || idx < 0 {
		return fmt.Errorf("unknown node %q (nodes are named node0..node%d)", name, minNodes-1)
	}
	if idx >= minNodes {
		return fmt.Errorf("node %q does not exist in the smallest sweep point (%d nodes)", name, minNodes)
	}
	return nil
}

// sortSchedule orders actions by offset, preserving runfile order for ties.
// The step loop relies on this ordering to fire actions at tick boundaries.
func sortSchedule(actions []Action) []Action {
	out := make([]Action, len(actions))
	copy(out, actions)
	// Insertion sort: schedules are short and stability matters.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].At < out[j-1].At; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fmtDuration renders a duration compactly for reports.
func fmtDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
