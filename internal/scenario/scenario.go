// Package scenario is the experiment harness: declarative runfiles
// describing a dproc cluster (topology, filters, load profile, churn and
// fault schedule, sweep axes) that cmd/dprocsim parses, validates and
// executes, emitting a JSON file and a markdown report per run. It follows
// onet's simul design (one runfile per experiment family, a host-count sweep
// axis, one simulation definition over several platforms) so that every
// large-scale question — the paper's Figure 6 scaling shape at 100×, churn
// soaks, partition storms, slow-subscriber herds — is a committed text file
// instead of a hand-written test.
//
// One step loop (loop.go) executes a scenario on virtual time over one of
// two backends, selected by the runfile's engine key:
//
//   - "model": single-threaded. Every node runs the real d-mon machinery
//     (modules, thresholds, deployed E-code filters) over a simulated
//     simres host, and fan-out travels through netsim's fluid link model,
//     which yields propagation-delay distributions that grow with fan-out
//     burst size exactly like a serialized unicast mesh. Deterministic
//     bit-for-bit under a fixed seed; scales to thousands of nodes on one
//     machine.
//   - "sockets": a real in-process cluster (core.SimCluster) over loopback
//     TCP wrapped in faultnet, so kill/stall/partition/disk verbs exercise
//     the actual transport, reconnect supervisor and WAL recovery paths.
//     Bounded to modest node counts by file descriptors and goroutines.
package scenario

import (
	"fmt"
	"path/filepath"
	"time"
)

// Engine names.
const (
	EngineModel   = "model"
	EngineSockets = "sockets"
)

// Filter modes.
const (
	FilterNone   = "none"
	FilterPeriod = "period"
	FilterDiff   = "diff"
	FilterEcode  = "ecode"
)

// Scenario is one parsed and validated runfile.
type Scenario struct {
	// Name labels the run and names its artifacts, <name>.json and
	// <name>.md.
	Name string
	// Seed drives every random stream in the run: simres host jitter,
	// workload payload jitter, churn and slow-subscriber selection, and
	// faultnet latency jitter. Identical runfiles (same seed) reproduce
	// identical model-engine runs byte-for-byte.
	Seed int64
	// Engine selects the backend: EngineModel or EngineSockets.
	Engine string
	// Duration is the virtual length of each sweep point.
	Duration time.Duration
	// Tick is the poll-loop step; every node polls once per tick.
	Tick time.Duration
	// DataDir, sockets engine only: non-empty gives every node a durable
	// history store under DataDir/<node>. The literal "auto" uses a
	// temporary directory removed after the run.
	DataDir string
	// Writers, sockets engine only: reactor writer goroutines per node
	// channel (0 = scale with GOMAXPROCS, kecho's default).
	Writers int
	// Dispatch, sockets engine only: the nodes' event dispatch mode —
	// "" or "poll" (paper-fidelity polled inboxes, the default) or
	// "event" (event-driven dispatch straight off the read path).
	Dispatch string

	Topology    Topology
	Load        Load
	Filters     Filters
	Subscribers Subscribers
	Churn       Churn
	Schedule    []Action
	Output      Output

	// Path is the runfile this scenario was parsed from (reports echo it).
	Path string
}

// Topology describes the cluster shape.
type Topology struct {
	// Nodes is the sweep axis: one run per entry. Every publisher's
	// subscriber set is the full mesh (n-1 subscribers).
	Nodes []int
	// Branchings is a second sweep axis (sockets engine only): each entry
	// configures the monitoring channel's relay-tree branching factor, 0
	// meaning the flat full mesh. Every node-count point runs once per
	// branching entry, so `nodes = 16` with `branching = 0, 4` directly
	// compares flat fan-out against a branching-4 relay tree. Empty means
	// flat only.
	Branchings []int
}

// Load is the synthetic data-stream profile, per node (see
// workload.EventProfile for field semantics).
type Load struct {
	Rate          float64
	Payload       int
	PayloadJitter float64
	BurstEvery    time.Duration
	BurstLen      time.Duration
	BurstFactor   float64
}

// Filters selects the monitoring filter configuration deployed on every
// node.
type Filters struct {
	// Mode: none (publish every poll), period (publish every Period),
	// diff (differential threshold), ecode (deploy Source).
	Mode string
	// Period is the resource update period for mode "period".
	Period time.Duration
	// DiffPct is the differential threshold percentage for mode "diff".
	DiffPct float64
	// Source is the E-code filter for mode "ecode"; compiled at
	// validation time so a broken filter fails -check, not the run.
	Source string
}

// Subscribers models the consumer side: how fast subscribers drain and how
// much they buffer, plus the slow-herd knob.
type Subscribers struct {
	// Rate is the drain rate in events/second per subscriber.
	Rate float64
	// Inbox is the per-subscriber queue capacity in events; deliveries
	// beyond it are dropped (counted, like kecho's inbox Dropped).
	Inbox int
	// SlowFraction designates that fraction of nodes (seeded choice) as
	// slow subscribers draining at SlowRate.
	SlowFraction float64
	// SlowRate is the drain rate of slow subscribers.
	SlowRate float64
}

// Churn flaps subscribers: every Interval, each subscriber leaves with
// probability Fraction and returns after Down.
type Churn struct {
	Interval time.Duration
	Fraction float64
	Down     time.Duration
}

// Action is one scheduled fault/perturbation verb at a virtual offset from
// the run start.
type Action struct {
	// At is the offset from run start; the action fires at the first tick
	// boundary >= At.
	At time.Duration
	// Verb is one of: kill, revive, stall, unstall, partition, heal,
	// perturb, disk, queryall.
	Verb string
	// Node is the target node name for node-directed verbs.
	Node string
	// Value is the numeric argument: partition size (first N nodes split
	// off), perturbation Mbps, disk byte budget.
	Value float64
	// Arg is the disk fault kind ("enospc", "failsync") or the queryall
	// query text ("p99 loadavg last 30s").
	Arg string
	// Line is the runfile line the action was parsed from.
	Line int
}

// Output says where the run's artifacts go.
type Output struct {
	// Dir is the directory artifacts are written into; the default,
	// scenario-out, is untracked.
	Dir string
}

// Defaults returns a scenario with every knob at its built-in default;
// the parser overlays runfile values on top of this.
func Defaults() Scenario {
	return Scenario{
		Seed:        1,
		Engine:      EngineModel,
		Duration:    30 * time.Second,
		Tick:        time.Second,
		Topology:    Topology{Nodes: []int{8}},
		Load:        Load{Rate: 1, Payload: 64, BurstFactor: 1},
		Filters:     Filters{Mode: FilterPeriod, Period: time.Second, DiffPct: 15},
		Subscribers: Subscribers{Rate: 10000, Inbox: 4096, SlowRate: 50},
		Output:      Output{Dir: "scenario-out"},
	}
}

// JSONPath returns the JSON artifact path, <dir>/<name>.json.
func (s *Scenario) JSONPath() string { return filepath.Join(s.Output.Dir, s.Name+".json") }

// ReportPath returns the markdown report path, <dir>/<name>.md.
func (s *Scenario) ReportPath() string { return filepath.Join(s.Output.Dir, s.Name+".md") }

// NodeName returns the canonical name of node i, matching
// core.SimCluster's naming.
func NodeName(i int) string { return fmt.Sprintf("node%d", i) }
