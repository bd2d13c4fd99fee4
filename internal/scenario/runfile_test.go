package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// golden is a runfile exercising every section and value form: quoted and
// bare scalars, comma sweep lists, durations, repeated schedule keys,
// comments (inline and full-line) and a triple-quoted E-code block.
const golden = `
# full-surface runfile
[scenario]
name     = "golden"
seed     = 99
engine   = "model"            # the default, spelled out
duration = "20s"
tick     = "500ms"

[topology]
nodes = 4, 8, 16

[load]
rate           = 2.5
payload        = 128
payload_jitter = 0.1
burst_every    = "5s"
burst_len      = "1s"
burst_factor   = 4.0

[filters]
mode   = "ecode"
source = """
  int n = 0;
  for (int i = 0; i < ninput; i++) {
    output[n] = input[i];
    n++;
  }
"""

[subscribers]
rate          = 500
inbox         = 256
slow_fraction = 0.25
slow_rate     = 10

[churn]
interval = "4s"
fraction = 0.5
down     = "2s"

[schedule]
at = "5s kill node1"
at = "8s revive node1"
at = "10s partition 2"
at = "12s heal"
at = "15s perturb 50"

[output]
dir = "out"
`

func TestParseGolden(t *testing.T) {
	s, err := Parse(golden, "golden.toml")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "golden" || s.Seed != 99 || s.Engine != EngineModel {
		t.Fatalf("scenario section: %+v", s)
	}
	if s.Duration != 20*time.Second || s.Tick != 500*time.Millisecond {
		t.Fatalf("durations: %v / %v", s.Duration, s.Tick)
	}
	if want := []int{4, 8, 16}; len(s.Topology.Nodes) != 3 || s.Topology.Nodes[0] != want[0] || s.Topology.Nodes[2] != want[2] {
		t.Fatalf("nodes sweep: %v", s.Topology.Nodes)
	}
	if s.Load.Rate != 2.5 || s.Load.Payload != 128 || s.Load.BurstFactor != 4.0 {
		t.Fatalf("load: %+v", s.Load)
	}
	if s.Filters.Mode != FilterEcode || !strings.Contains(s.Filters.Source, "output[n] = input[i]") {
		t.Fatalf("filters: %+v", s.Filters)
	}
	if s.Subscribers.SlowFraction != 0.25 || s.Subscribers.SlowRate != 10 {
		t.Fatalf("subscribers: %+v", s.Subscribers)
	}
	if s.Churn.Interval != 4*time.Second || s.Churn.Fraction != 0.5 {
		t.Fatalf("churn: %+v", s.Churn)
	}
	if len(s.Schedule) != 5 {
		t.Fatalf("schedule: %d actions", len(s.Schedule))
	}
	a := s.Schedule[2]
	if a.At != 10*time.Second || a.Verb != "partition" || int(a.Value) != 2 {
		t.Fatalf("schedule[2]: %+v", a)
	}
	if s.Schedule[0].Line == 0 {
		t.Fatal("schedule action lost its line number")
	}
	if got := s.JSONPath(); got != "out/golden.json" {
		t.Fatalf("JSONPath = %q", got)
	}
	if got := s.ReportPath(); got != "out/golden.md" {
		t.Fatalf("ReportPath = %q", got)
	}
}

func TestParseDefaultsApply(t *testing.T) {
	s, err := Parse("[scenario]\nname = \"d\"\n", "d.toml")
	if err != nil {
		t.Fatal(err)
	}
	def := Defaults()
	if s.Engine != def.Engine || s.Tick != def.Tick || s.Subscribers.Inbox != def.Subscribers.Inbox {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted scenario should validate: %v", err)
	}
}

// TestParseErrors is the malformed-input table: every entry must fail, and
// the diagnostic must carry the expected fragments (section, key, line).
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want []string // substrings of the error message
	}{
		{"missing name", "[scenario]\nseed = 1\n", []string{"[scenario]", "name", "required"}},
		{"unknown section", "[scenario]\nname = \"x\"\n[warp]\nspeed = 9\n", []string{"3:", "unknown section [warp]"}},
		{"unknown key", "[scenario]\nname = \"x\"\nwarp = 9\n", []string{"3:", "[scenario]", "warp", "unknown key"}},
		{"key before section", "foo = 1\n", []string{"1:", "before any [section]"}},
		{"missing equals", "[scenario]\nname \"x\"\n", []string{"2:", "key = value"}},
		{"bad int", "[scenario]\nname = \"x\"\nseed = lots\n", []string{"3:", "seed", "integer"}},
		{"bad duration", "[scenario]\nname = \"x\"\nduration = \"sideways\"\n", []string{"3:", "duration"}},
		{"bad node list", "[scenario]\nname = \"x\"\n[topology]\nnodes = 4, eight\n", []string{"4:", "nodes", "integers"}},
		{"unterminated heredoc", "[scenario]\nname = \"x\"\n[filters]\nsource = \"\"\"\nnever closed\n", []string{"4:", "unterminated"}},
		{"unknown verb", "[scenario]\nname = \"x\"\n[schedule]\nat = \"5s explode node1\"\n", []string{"4:", "unknown verb"}},
		{"bad offset", "[schedule]\nat = \"soon kill node1\"\n", []string{"2:", "bad offset"}},
		{"schedule only takes at", "[schedule]\nwhen = \"5s kill node1\"\n", []string{"2:", "[schedule]", "when"}},
		{"malformed header", "[scenario\nname = \"x\"\n", []string{"1:", "malformed section header"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.text, "bad.toml")
			if err == nil {
				t.Fatalf("parse accepted:\n%s", tc.text)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, want *ParseError", err)
			}
			msg := err.Error()
			for _, frag := range tc.want {
				if !strings.Contains(msg, frag) {
					t.Errorf("error %q missing %q", msg, frag)
				}
			}
		})
	}
}

// TestValidateErrors covers cross-field rules: contradictory engine/key
// and engine/verb combos, sweep bounds, node targets and filter compilation.
func TestValidateErrors(t *testing.T) {
	base := func() *Scenario {
		s := Defaults()
		s.Name = "v"
		s.Path = "v.toml"
		return &s
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   []string
	}{
		{"unknown engine", func(s *Scenario) { s.Engine = "quantum" }, []string{"engine", "quantum"}},
		{"sockets node cap", func(s *Scenario) { s.Engine = EngineSockets; s.Topology.Nodes = []int{128} }, []string{"128", "cap"}},
		{"model node cap", func(s *Scenario) { s.Topology.Nodes = []int{9000} }, []string{"9000", "cap"}},
		{"too many sweep points", func(s *Scenario) {
			s.Topology.Nodes = make([]int, 17)
			for i := range s.Topology.Nodes {
				s.Topology.Nodes[i] = i + 2
			}
		}, []string{"sweep points"}},
		{"one-node point", func(s *Scenario) { s.Topology.Nodes = []int{1} }, []string{"at least 2"}},
		{"tick beyond duration", func(s *Scenario) { s.Tick = time.Minute }, []string{"tick", "duration"}},
		{"data_dir on model", func(s *Scenario) { s.DataDir = "auto" }, []string{"data_dir", "sockets"}},
		{"churn without down", func(s *Scenario) { s.Churn.Fraction = 0.5; s.Churn.Interval = time.Second }, []string{"down"}},
		{"burst mismatch", func(s *Scenario) { s.Load.BurstEvery = time.Second }, []string{"burst_len", "together"}},
		{"jitter range", func(s *Scenario) { s.Load.PayloadJitter = 2 }, []string{"payload_jitter", "[0,1]"}},
		{"ecode must compile", func(s *Scenario) { s.Filters.Mode = FilterEcode; s.Filters.Source = "$$$ garbage" }, []string{"source", "compile"}},
		{"slow fraction sockets", func(s *Scenario) {
			s.Engine = EngineSockets
			s.Topology.Nodes = []int{4}
			s.Subscribers.SlowFraction = 0.5
		}, []string{"slow_fraction", "model"}},
		{"perturb on sockets", func(s *Scenario) {
			s.Engine = EngineSockets
			s.Topology.Nodes = []int{4}
			s.Schedule = []Action{{At: time.Second, Verb: "perturb", Value: 50, Line: 7}}
		}, []string{"perturb", "model"}},
		{"disk on model", func(s *Scenario) {
			s.Schedule = []Action{{At: time.Second, Verb: "disk", Node: "node0", Arg: "failsync", Line: 9}}
		}, []string{"disk", "sockets"}},
		{"node beyond smallest point", func(s *Scenario) {
			s.Schedule = []Action{{At: time.Second, Verb: "kill", Node: "node12", Line: 4}}
		}, []string{"node12", "smallest sweep point"}},
		{"partition too large", func(s *Scenario) {
			s.Schedule = []Action{{At: time.Second, Verb: "partition", Value: 8, Line: 4}}
		}, []string{"partition size"}},
		{"action beyond duration", func(s *Scenario) {
			s.Schedule = []Action{{At: time.Hour, Verb: "heal", Line: 4}}
		}, []string{"beyond the run duration"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a bad scenario")
			}
			msg := err.Error()
			for _, frag := range tc.want {
				if !strings.Contains(msg, frag) {
					t.Errorf("error %q missing %q", msg, frag)
				}
			}
		})
	}
}

func TestValidateErrorCarriesScheduleLine(t *testing.T) {
	s := Defaults()
	s.Name = "v"
	s.Path = "v.toml"
	s.Schedule = []Action{{At: time.Hour, Verb: "heal", Line: 42}}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "v.toml:42:") {
		t.Fatalf("want line-carrying error, got %v", err)
	}
}
