package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExampleRunfilesValidate keeps the shipped runfiles honest: every file
// under examples/scenarios must parse and validate.
func TestExampleRunfilesValidate(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/scenarios missing: %v", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".toml") {
			continue
		}
		n++
		if _, err := LoadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
	if n < 4 {
		t.Fatalf("only %d example runfiles found, want the shipped four plus smoke", n)
	}
}

// churnSoak is a scaled-down copy of examples/scenarios/churn-soak.toml:
// same shape, shorter run, so the determinism test stays fast.
const churnSoak = `
[scenario]
name     = "churn-soak-test"
seed     = 7
engine   = "model"
duration = "30s"

[topology]
nodes = 16

[load]
rate    = 2.0
payload = 128

[filters]
mode     = "diff"
diff_pct = 15

[subscribers]
rate  = 500
inbox = 64

[churn]
interval = "5s"
fraction = 0.2
down     = "7s"
`

// TestModelDeterminism is the reproducibility guarantee: the churn-soak
// scenario run twice from the same seed yields identical event counts and
// identical histogram snapshots — and therefore byte-identical artifacts.
func TestModelDeterminism(t *testing.T) {
	run := func() *RunResult {
		s, err := Parse(churnSoak, "churn-soak-test.toml")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	pa, pb := a.Points[0], b.Points[0]
	if pa.Reports != pb.Reports || pa.Events != pb.Events || pa.Deliveries != pb.Deliveries ||
		pa.Drops != pb.Drops || pa.Skips != pb.Skips || pa.BytesSent != pb.BytesSent {
		t.Fatalf("counters differ:\n%+v\n%+v", pa, pb)
	}
	if pa.Prop != pb.Prop {
		t.Fatal("histogram snapshots differ between identical runs")
	}
	ja, err := a.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("JSON artifacts differ between identical runs")
	}
	if !bytes.Equal(a.EncodeReport(), b.EncodeReport()) {
		t.Fatal("markdown reports differ between identical runs")
	}
	// Sanity: the run actually did something.
	if pa.Deliveries == 0 || pa.Reports == 0 {
		t.Fatalf("empty run: %+v", pa)
	}
	for _, rc := range pa.Recovery {
		if rc.Name == "churn_leaves" && rc.Value == 0 {
			t.Fatal("churn never fired")
		}
	}
}

// TestModelSeedChangesRun guards against the opposite failure: a harness
// that ignores its seed would pass the determinism test trivially.
func TestModelSeedChangesRun(t *testing.T) {
	run := func(seed int64) PointResult {
		s, err := Parse(churnSoak, "churn-soak-test.toml")
		if err != nil {
			t.Fatal(err)
		}
		s.Seed = seed
		res, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0]
	}
	if a, b := run(7), run(8); a.Deliveries == b.Deliveries && a.Prop == b.Prop {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestModelScalingShape asserts the property the scaling sweep exists to
// measure: tail propagation delay grows with fan-out size.
func TestModelScalingShape(t *testing.T) {
	s := Defaults()
	s.Name = "shape"
	s.Path = "shape.toml"
	s.Duration = 5 * time.Second
	s.Topology.Nodes = []int{4, 64}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Points[0], res.Points[1]
	if small.Deliveries == 0 || large.Deliveries == 0 {
		t.Fatalf("empty sweep points: %d / %d", small.Deliveries, large.Deliveries)
	}
	if large.Prop.Quantile(0.99) <= small.Prop.Quantile(0.99) {
		t.Fatalf("p99 did not grow with cluster size: %d nodes → %v, %d nodes → %v",
			small.Nodes, time.Duration(small.Prop.Quantile(0.99)),
			large.Nodes, time.Duration(large.Prop.Quantile(0.99)))
	}
}

// TestModelSlowSubscribersDrop asserts the fluid inbox model: subscribers
// draining slower than the offered load must overflow and drop.
func TestModelSlowSubscribersDrop(t *testing.T) {
	s := Defaults()
	s.Name = "herd"
	s.Path = "herd.toml"
	s.Duration = 20 * time.Second
	s.Topology.Nodes = []int{32}
	s.Load.Rate = 4
	s.Subscribers.Inbox = 32
	s.Subscribers.SlowFraction = 0.5
	s.Subscribers.SlowRate = 1
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Drops == 0 {
		t.Fatalf("no drops despite a slow herd: %+v", res.Points[0])
	}
}

// TestModelScheduleVerbs runs kill/revive and partition/heal and checks
// they bite: a killed publisher stops publishing, a partition skips
// cross-group deliveries.
func TestModelScheduleVerbs(t *testing.T) {
	s := Defaults()
	s.Name = "verbs"
	s.Path = "verbs.toml"
	s.Duration = 10 * time.Second
	s.Topology.Nodes = []int{4}
	s.Schedule = []Action{
		{At: 2 * time.Second, Verb: "kill", Node: "node1", Line: 1},
		{At: 6 * time.Second, Verb: "revive", Node: "node1", Line: 2},
		{At: 3 * time.Second, Verb: "partition", Value: 2, Line: 3},
		{At: 8 * time.Second, Verb: "heal", Line: 4},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Skips == 0 {
		t.Fatalf("partition/kill produced no skips: %+v", pt)
	}
	rc := map[string]uint64{}
	for _, c := range pt.Recovery {
		rc[c.Name] = c.Value
	}
	if rc["kills"] != 1 || rc["revives"] != 1 || rc["partitions"] != 1 || rc["heals"] != 1 {
		t.Fatalf("recovery counters: %v", rc)
	}
}

// TestWriteArtifacts round-trips the artifact paths.
func TestWriteArtifacts(t *testing.T) {
	s := Defaults()
	s.Name = "artifacts"
	s.Path = "artifacts.toml"
	s.Duration = 2 * time.Second
	s.Topology.Nodes = []int{2}
	s.Output.Dir = t.TempDir()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath, reportPath, err := res.WriteArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, reportPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	if !strings.HasSuffix(jsonPath, "artifacts.json") {
		t.Fatalf("jsonPath = %q", jsonPath)
	}
	if !strings.HasSuffix(reportPath, "artifacts.md") {
		t.Fatalf("reportPath = %q", reportPath)
	}
}
