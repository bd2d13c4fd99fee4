package dmon

import (
	"strings"
	"testing"
	"time"

	"dproc/internal/metrics"
)

func TestThresholdPass(t *testing.T) {
	cases := []struct {
		name     string
		th       Threshold
		value    float64
		lastSent float64
		want     bool
	}{
		{"diff above pct", Threshold{Kind: DiffPercent, A: 15}, 115, 100, true},
		{"diff below pct", Threshold{Kind: DiffPercent, A: 15}, 110, 100, false},
		{"diff exact pct", Threshold{Kind: DiffPercent, A: 15}, 115.0, 100, true},
		{"diff downward", Threshold{Kind: DiffPercent, A: 15}, 80, 100, true},
		{"diff zero last, nonzero now", Threshold{Kind: DiffPercent, A: 15}, 5, 0, true},
		{"diff zero last, zero now", Threshold{Kind: DiffPercent, A: 15}, 0, 0, false},
		{"above true", Threshold{Kind: Above, A: 2}, 2.5, 0, true},
		{"above false", Threshold{Kind: Above, A: 2}, 2.0, 0, false},
		{"below true", Threshold{Kind: Below, A: 4}, 3, 0, true},
		{"below false", Threshold{Kind: Below, A: 4}, 4, 0, false},
		{"inrange inside", Threshold{Kind: InRange, A: 1, B: 3}, 2, 0, true},
		{"inrange edge", Threshold{Kind: InRange, A: 1, B: 3}, 3, 0, true},
		{"inrange outside", Threshold{Kind: InRange, A: 1, B: 3}, 4, 0, false},
		{"outrange outside", Threshold{Kind: OutOfRange, A: 1, B: 3}, 4, 0, true},
		{"outrange inside", Threshold{Kind: OutOfRange, A: 1, B: 3}, 2, 0, false},
	}
	for _, c := range cases {
		if got := c.th.Pass(c.value, c.lastSent); got != c.want {
			t.Errorf("%s: Pass(%g, %g) = %v, want %v", c.name, c.value, c.lastSent, got, c.want)
		}
	}
}

func TestThresholdAppliesTo(t *testing.T) {
	specific := Threshold{Metric: metrics.LOADAVG}
	if !specific.AppliesTo(metrics.LOADAVG) || specific.AppliesTo(metrics.FREEMEM) {
		t.Fatal("specific threshold scope wrong")
	}
	any := Threshold{Metric: AnyMetric}
	if !any.AppliesTo(metrics.LOADAVG) || !any.AppliesTo(metrics.CACHE_MISS) {
		t.Fatal("AnyMetric threshold scope wrong")
	}
}

func TestThresholdKindString(t *testing.T) {
	for k := DiffPercent; k <= OutOfRange; k++ {
		if strings.Contains(k.String(), "(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestParseControlPeriod(t *testing.T) {
	cmds, err := ParseControl("period cpu 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || cmds[0].Kind != "period" || cmds[0].Resource != metrics.CPU ||
		cmds[0].Period != 2*time.Second {
		t.Fatalf("cmds = %+v", cmds)
	}
	// Fractional seconds.
	cmds, err = ParseControl("period net 0.5")
	if err != nil || cmds[0].Period != 500*time.Millisecond {
		t.Fatalf("cmds=%+v err=%v", cmds, err)
	}
	// All resources.
	cmds, err = ParseControl("period all 3")
	if err != nil || !cmds[0].AllResources {
		t.Fatalf("cmds=%+v err=%v", cmds, err)
	}
}

func TestParseControlDiff(t *testing.T) {
	cmds, err := ParseControl("diff all 15")
	if err != nil {
		t.Fatal(err)
	}
	c := cmds[0]
	if c.Kind != "diff" || !c.AllResources || c.Threshold.Kind != DiffPercent ||
		c.Threshold.A != 15 || c.Threshold.Metric != AnyMetric {
		t.Fatalf("cmd = %+v", c)
	}
}

func TestParseControlThresholds(t *testing.T) {
	cmds, err := ParseControl("threshold loadavg above 2\nthreshold freemem below 50e6\nthreshold netbw inrange 0 1e6")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("got %d commands", len(cmds))
	}
	if cmds[0].Threshold.Kind != Above || cmds[0].Threshold.Metric != metrics.LOADAVG || cmds[0].Threshold.A != 2 {
		t.Fatalf("cmd0 = %+v", cmds[0])
	}
	if cmds[1].Threshold.Kind != Below || cmds[1].Threshold.A != 50e6 {
		t.Fatalf("cmd1 = %+v", cmds[1])
	}
	if cmds[2].Threshold.Kind != InRange || cmds[2].Threshold.B != 1e6 {
		t.Fatalf("cmd2 = %+v", cmds[2])
	}
	if cmds[2].Resource != metrics.Network {
		t.Fatalf("threshold resource = %v", cmds[2].Resource)
	}
}

func TestParseControlFilterConsumesRest(t *testing.T) {
	text := "period cpu 2\nfilter all\n{ int i = 0; output[i] = input[LOADAVG]; }"
	cmds, err := ParseControl(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 {
		t.Fatalf("got %d commands", len(cmds))
	}
	if cmds[1].Kind != "filter" || !cmds[1].AllResources {
		t.Fatalf("cmd = %+v", cmds[1])
	}
	if !strings.Contains(cmds[1].Source, "input[LOADAVG]") {
		t.Fatalf("filter source = %q", cmds[1].Source)
	}
}

func TestParseControlCommentsAndBlanks(t *testing.T) {
	cmds, err := ParseControl("# set things up\n\nperiod disk 5\n  # done\n")
	if err != nil || len(cmds) != 1 {
		t.Fatalf("cmds=%v err=%v", cmds, err)
	}
}

func TestParseControlErrors(t *testing.T) {
	bad := []string{
		"period cpu",                    // missing value
		"period cpu zero",               // non-numeric
		"period cpu -1",                 // non-positive
		"period gpu 1",                  // unknown resource
		"diff cpu",                      // missing pct
		"diff cpu -3",                   // negative pct
		"threshold bogus above 1",       // unknown metric
		"threshold loadavg sideways 1",  // unknown kind
		"threshold loadavg above",       // missing value
		"threshold loadavg above x",     // bad value
		"threshold loadavg inrange 5 1", // inverted range
		"threshold loadavg inrange 1",   // missing hi
		"clear",                         // missing resource
		"clear gpu",                     // unknown resource
		"filter all",                    // no code follows
		"launch missiles",               // unknown command
	}
	for _, text := range bad {
		if _, err := ParseControl(text); err == nil {
			t.Errorf("ParseControl(%q) succeeded, want error", text)
		}
	}
}

func TestParseControlClear(t *testing.T) {
	cmds, err := ParseControl("clear mem")
	if err != nil || cmds[0].Kind != "clear" || cmds[0].Resource != metrics.Memory {
		t.Fatalf("cmds=%+v err=%v", cmds, err)
	}
	cmds, err = ParseControl("clear all")
	if err != nil || !cmds[0].AllResources {
		t.Fatalf("cmds=%+v err=%v", cmds, err)
	}
}
