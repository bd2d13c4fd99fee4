package dmon

import (
	"strings"
	"testing"
	"time"

	"dproc/internal/metrics"
)

func TestNodeName(t *testing.T) {
	n := newSimNode(t, "etna")
	var r metrics.Report
	if n.d.stamp(&r, n.clk.Now(), nil); r.Node != "etna" {
		t.Fatalf("report Node = %q", r.Node)
	}
}

// TestAddResourceThreshold installs a threshold on a whole resource the way
// the control file does (`diff <resource> <percent>`).
func TestAddResourceThreshold(t *testing.T) {
	n := newSimNode(t, "alan")
	if err := n.d.ApplyControlText("diff disk 25"); err != nil {
		t.Fatal(err)
	}
	if err := n.d.ApplyControlText("diff gpu 25"); err == nil {
		t.Fatal("bad resource accepted")
	}
	// The threshold gates every disk metric: unchanged values suppressed
	// after the first send.
	now := n.clk.Now()
	n.d.FilterSamples(now, n.d.CollectDue(now))
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	for _, s := range sent {
		if s.ID.Resource() == metrics.Disk {
			t.Fatalf("unchanged disk metric %v passed a 25%% differential", s.ID)
		}
	}
}

func TestClearThresholds(t *testing.T) {
	n := newSimNode(t, "alan")
	n.d.SetDifferential(15)
	n.d.ClearThresholds(metrics.CPU)
	// CPU flows again; memory still gated.
	now := n.clk.Now()
	n.d.FilterSamples(now, n.d.CollectDue(now)) // prime lastSent
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	var cpu, mem int
	for _, s := range sent {
		switch s.ID.Resource() {
		case metrics.CPU:
			cpu++
		case metrics.Memory:
			mem++
		}
	}
	if cpu == 0 {
		t.Fatal("cleared CPU thresholds still gate")
	}
	if mem != 0 {
		t.Fatal("memory thresholds vanished too")
	}
	n.d.ClearAllThresholds()
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	if got := len(n.d.FilterSamples(now, n.d.CollectDue(now))); got != standardMetricCount {
		t.Fatalf("after ClearAllThresholds sent %d, want %d", got, standardMetricCount)
	}
}

func TestConfigTextRendersEverything(t *testing.T) {
	n := newSimNode(t, "alan")
	if n.d.ConfigText() != "" {
		t.Fatalf("fresh config = %q", n.d.ConfigText())
	}
	err := n.d.ApplyControlText(strings.Join([]string{
		"period cpu 2",
		"diff net 15",
		"threshold loadavg above 3",
		"threshold freemem below 5e7",
		"threshold diskusage inrange 100 200",
		"threshold netbw outrange 0 1e6",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.d.DeployFilter(metrics.PMC, false, "output[0] = input[CACHE_MISS];"); err != nil {
		t.Fatal(err)
	}
	if err := n.d.DeployFilter(0, true, "output[0] = input[LOADAVG];"); err != nil {
		t.Fatal(err)
	}
	text := n.d.ConfigText()
	for _, want := range []string{
		"period cpu 2",
		"diff net 15",
		"threshold loadavg above 3",
		"threshold freemem below 5e+07",
		"threshold diskusage inrange 100 200",
		"threshold netbw outrange 0 1e+06",
		"# filter pmc:",
		"# filter all:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("config %q missing %q", text, want)
		}
	}
	// The non-comment portion re-parses cleanly.
	if _, err := ParseControl(text); err != nil {
		t.Fatalf("rendered config does not re-parse: %v", err)
	}
}

func TestApplyAllResourcesPeriodAndDiff(t *testing.T) {
	n := newSimNode(t, "alan")
	if err := n.d.ApplyControlText("period all 4"); err != nil {
		t.Fatal(err)
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if n.d.Period(r) != 4*time.Second {
			t.Fatalf("resource %v period = %v", r, n.d.Period(r))
		}
	}
	if err := n.d.ApplyControlText("diff disk 30"); err != nil {
		t.Fatal(err)
	}
	if err := n.d.ApplyControlText("clear disk"); err != nil {
		t.Fatal(err)
	}
	if err := n.d.ApplyControlText("clear all"); err != nil {
		t.Fatal(err)
	}
	if err := n.d.Apply(Command{Kind: "bogus"}); err == nil {
		t.Fatal("unknown command kind accepted")
	}
}

func TestApplyFilterScoped(t *testing.T) {
	n := newSimNode(t, "alan")
	if err := n.d.ApplyControlText("filter cpu\noutput[0] = input[LOADAVG];"); err != nil {
		t.Fatal(err)
	}
	if !n.d.HasFilter() {
		t.Fatal("scoped filter not installed")
	}
	text := n.d.ConfigText()
	if !strings.Contains(text, "# filter cpu:") {
		t.Fatalf("config = %q", text)
	}
}
