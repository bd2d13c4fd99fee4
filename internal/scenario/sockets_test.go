package scenario

import (
	"runtime"
	"testing"
	"time"

	"dproc/internal/leakcheck"
)

// runSockets validates and runs a one-point sockets scenario, checks that
// closing the point's backend gave back every goroutine the cluster, the
// fabric and the admin servers started, and returns the point with its
// recovery counters by name.
func runSockets(t *testing.T, s *Scenario) (PointResult, map[string]uint64) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Goroutines(t, "after the point's backend closed", 0, before)
	pt := res.Points[0]
	rc := map[string]uint64{}
	for _, c := range pt.Recovery {
		rc[c.Name] = c.Value
	}
	return pt, rc
}

// TestSocketsEngineSmall stands up a real 3-node loopback cluster under the
// faultnet fabric for a short virtual-time run with a kill/revive pair, and
// checks the harvest: real deliveries, no propagation samples (the clock is
// the tick), and the transport's recovery counters reacting to the fault.
func TestSocketsEngineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets cluster")
	}
	s := Defaults()
	s.Name = "sockets-small"
	s.Path = "sockets-small.toml"
	s.Engine = EngineSockets
	s.Duration = 6 * time.Second
	s.Tick = time.Second
	s.Topology.Nodes = []int{3}
	s.Load.Rate = 2
	s.Schedule = []Action{
		{At: 2 * time.Second, Verb: "kill", Node: "node2", Line: 1},
		{At: 4 * time.Second, Verb: "revive", Node: "node2", Line: 2},
	}
	pt, rc := runSockets(t, &s)
	if pt.Reports == 0 {
		t.Fatal("no monitoring reports published")
	}
	if pt.Events == 0 {
		t.Fatal("no workload events published")
	}
	if pt.Deliveries == 0 {
		t.Fatal("no events delivered over the wire")
	}
	if pt.Prop.Count != 0 {
		t.Fatalf("%d propagation samples stamped on a clock quantised to the tick", pt.Prop.Count)
	}
	if rc["kills"] != 1 || rc["revives"] != 1 {
		t.Fatalf("schedule verbs not accounted: %v", rc)
	}
	if rc["conns_killed"] == 0 {
		t.Fatalf("fabric crash severed no connections: %v", rc)
	}
}

// TestSocketsEngineDurable exercises the disk-fault path: durable stores
// behind a faultnet disk injector, with a failsync fault mid-run. The run
// must survive and report the WAL errors it provoked.
func TestSocketsEngineDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets cluster with durable stores")
	}
	s := Defaults()
	s.Name = "sockets-durable"
	s.Path = "sockets-durable.toml"
	s.Engine = EngineSockets
	s.Duration = 4 * time.Second
	s.Tick = time.Second
	s.Topology.Nodes = []int{2}
	s.DataDir = t.TempDir()
	s.Schedule = []Action{
		{At: 2 * time.Second, Verb: "disk", Node: "node0", Arg: "failsync", Line: 1},
	}
	pt, rc := runSockets(t, &s)
	if pt.Reports == 0 || pt.Deliveries == 0 {
		t.Fatalf("durable run went quiet: %+v", pt)
	}
	if rc["disk_faults"] != 1 {
		t.Fatalf("disk fault not applied: %v", rc)
	}
}

// TestSocketsQueryAllAfterKill: a queryall fired while node0 is killed is
// coordinated from the first node the down-set says is up, so the dead node
// is the one annotated failure of a partial — not the coordinator through
// whose crashed host every fetch would leave. With churn active, a churn
// rejoin boundary does not bring a scheduled kill back: node0 is still the
// one failure when the query runs after every churn window has expired.
func TestSocketsQueryAllAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets cluster")
	}
	for _, tc := range []struct {
		name  string
		churn Churn
	}{
		{"kill only", Churn{}},
		// Fraction 1 takes every node churn may take at 3s and returns it at
		// 4s, and again at 6s → 7s; the query at 8s sees only the kill.
		{"kill then churn rejoin", Churn{Interval: 3 * time.Second, Fraction: 1, Down: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Defaults()
			s.Name = "kill-queryall"
			s.Path = "kill-queryall.toml"
			s.Engine = EngineSockets
			s.Duration = 8 * time.Second
			s.Topology.Nodes = []int{4}
			s.Churn = tc.churn
			s.Schedule = []Action{
				{At: 2 * time.Second, Verb: "kill", Node: "node0", Line: 1},
				{At: 8 * time.Second, Verb: "queryall", Arg: "avg loadavg last 10s", Line: 2},
			}
			_, rc := runSockets(t, &s)
			if rc["queryall_runs"] != 1 || rc["queryall_nodes_ok"] != 3 || rc["queryall_nodes_failed"] != 1 ||
				rc["queryall_partials"] != 1 || rc["queryall_errors"] != 0 {
				t.Fatalf("queryall after kill node0: %v", rc)
			}
		})
	}
}
