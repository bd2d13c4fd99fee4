package figures

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFigureTableAndCSV(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "demo", XLabel: "n", YLabel: "us",
		Series: []Series{
			{Label: "a", Points: []Point{{1, 10}, {2, 20}}},
			{Label: "b", Points: []Point{{1, 11}}},
		},
		Notes: []string{"calibrated"},
	}
	table := f.Table()
	for _, want := range []string{"FIGX", "demo", "a", "b", "10", "20", "note: calibrated"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "x,a,b" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "1,10,11" || lines[2] != "2,20," {
		t.Fatalf("csv rows = %v", lines[1:])
	}
	if s := f.Find("a"); s == nil || len(s.Points) != 2 {
		t.Fatal("Find failed")
	}
	if f.Find("zzz") != nil {
		t.Fatal("Find returned a missing series")
	}
	if y, ok := f.Series[0].Y(2); !ok || y != 20 {
		t.Fatal("Series.Y failed")
	}
	if f.Series[0].Last().Y != 20 {
		t.Fatal("Series.Last failed")
	}
}

func TestVariantNames(t *testing.T) {
	if len(Variants()) != 3 {
		t.Fatal("want 3 variants")
	}
	if Period1s.String() != "update period=1s" || Differential.String() != "differential filter" {
		t.Fatal("variant legend names wrong")
	}
}

// small shared sizes keep the real-TCP figures fast in unit tests; the full
// 8-node/100-iteration runs happen in cmd/figures.
// Timing comparisons use generous slack so the shape assertions hold even
// on heavily loaded CI machines.
const (
	testNodes = 4
	testIters = 25
)

func TestFigure4Shape(t *testing.T) {
	f, err := Figure4(testNodes, testIters)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		first, last := s.Points[0].Y, s.Last().Y
		if first != calBaselineMflops {
			t.Errorf("%s: 0-node Mflops = %g, want baseline", s.Label, first)
		}
		if last > first {
			t.Errorf("%s: Mflops increased with nodes (%g -> %g)", s.Label, first, last)
		}
		// The paper: the decrease is slight (well under 10%).
		if last < first*0.9 {
			t.Errorf("%s: Mflops dropped too much: %g -> %g", s.Label, first, last)
		}
	}
	// Ordering at max cluster size: differential loses least, 1s most.
	x := float64(testNodes)
	d, _ := f.Find(Differential.String()).Y(x)
	p2, _ := f.Find(Period2s.String()).Y(x)
	p1, _ := f.Find(Period1s.String()).Y(x)
	if !(d >= p2 && p2 >= p1) {
		t.Errorf("Mflops ordering wrong: diff=%g 2s=%g 1s=%g", d, p2, p1)
	}
}

func TestFigure5Shape(t *testing.T) {
	f, err := Figure5(testNodes, testIters)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if s.Points[0].Y != calIperfBaseMbps {
			t.Errorf("%s: baseline = %g", s.Label, s.Points[0].Y)
		}
		drop := s.Points[0].Y - s.Last().Y
		// The paper: bandwidth drops by less than 0.5% even at 8 nodes.
		if drop < 0 || drop > calIperfBaseMbps*0.01 {
			t.Errorf("%s: bandwidth drop = %g Mbps, want small nonnegative", s.Label, drop)
		}
	}
	x := float64(testNodes)
	d, _ := f.Find(Differential.String()).Y(x)
	p1, _ := f.Find(Period1s.String()).Y(x)
	if d < p1 {
		t.Errorf("differential available bw (%g) below 1s period (%g)", d, p1)
	}
}

func TestFigure6Shape(t *testing.T) {
	f, err := Figure6(testNodes, testIters)
	if err != nil {
		t.Fatal(err)
	}
	x := float64(testNodes)
	d, _ := f.Find(Differential.String()).Y(x)
	p1, _ := f.Find(Period1s.String()).Y(x)
	// Differential submits almost nothing; the 1s period submits the most.
	// (Slack factor absorbs scheduler noise on loaded machines.)
	if d > p1*1.5 {
		t.Errorf("submission overhead ordering wrong: diff=%.1f 1s=%.1f us", d, p1)
	}
}

func TestFigure7LargerEventsCostMore(t *testing.T) {
	f7, err := Figure7(testNodes, testIters)
	if err != nil {
		t.Fatal(err)
	}
	if us, ok := f7.Find(Period1s.String()).Y(float64(testNodes)); !ok || us <= 0 {
		t.Fatalf("figure 7 has no 1s point at %d nodes (%g, %v)", testNodes, us, ok)
	}
	// What a 5 KB event costs over a 100 B one is the write of 5 KB per
	// peer. PollOnce, which Figures 6 and 7 time, only enqueues: its wall
	// time differs by one 5 KB copy, a few percent of ~10 us, and two
	// medians of 25 polls cannot be ordered on that. The bytes the writers
	// put on the wire per iteration include the write and do not depend on
	// timing.
	_, _, small, err := clusterRates(testNodes, Period1s.apply, 0, testIters)
	if err != nil {
		t.Fatal(err)
	}
	_, _, large, err := clusterRates(testNodes, Period1s.apply, 5000, testIters)
	if err != nil {
		t.Fatal(err)
	}
	if large < 5*small {
		t.Errorf("5KB events move %.0f B per iteration, 100B events %.0f B: want at least 5x", large, small)
	}
}

func TestFigure8Shape(t *testing.T) {
	f, err := Figure8(testNodes, testIters)
	if err != nil {
		t.Fatal(err)
	}
	x := float64(testNodes)
	d, _ := f.Find(Differential.String()).Y(x)
	p1, _ := f.Find(Period1s.String()).Y(x)
	if d > p1*1.5 {
		t.Errorf("differential receive overhead (%.1fus) above 1s period (%.1fus)", d, p1)
	}
}

func TestSendFraction(t *testing.T) {
	frac1, err := sendFraction(2, Period1s.apply, 10)
	if err != nil {
		t.Fatal(err)
	}
	if frac1 < 0.9 {
		t.Fatalf("1s send fraction = %g, want ~1", frac1)
	}
	fracD, err := sendFraction(2, Differential.apply, 20)
	if err != nil {
		t.Fatal(err)
	}
	if fracD > 0.3 {
		t.Fatalf("differential send fraction = %g, want near 0", fracD)
	}
	if frac0, err := sendFraction(1, Period1s.apply, 5); err != nil || frac0 != 0 {
		t.Fatalf("single-node fraction = (%g, %v)", frac0, err)
	}
}

// xs lists a series' X values.
func xs(s Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.X
	}
	return out
}

func TestFigure4LiveRunsRealLinpack(t *testing.T) {
	f, err := Figure4Live(3, 1, 64) // tiny: 3 nodes max, 1 solve, n=64
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	for _, s := range f.Series {
		// 0 and 2 fit below maxNodes = 3, 4 does not, and maxNodes closes
		// the series: strictly increasing, none above maxNodes.
		if got := fmt.Sprint(xs(s)); got != "[0 2 3]" {
			t.Fatalf("%s: cluster sizes %s, want [0 2 3]", s.Label, got)
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s: nonpositive Mflops at n=%g", s.Label, p.X)
			}
		}
	}
}

func TestFigure4LiveDefaults(t *testing.T) {
	// Nonpositive cluster size and solve count take the defaults; only the
	// matrix is kept small so the run stays short.
	f, err := Figure4Live(0, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if got := fmt.Sprint(xs(s)); got != "[0 2 4 8]" {
			t.Errorf("%s: cluster sizes %s, want the default [0 2 4 8]", s.Label, got)
		}
	}
	if !strings.Contains(f.Notes[0], "5 solves per point") {
		t.Errorf("note %q does not record the default 5 solves", f.Notes[0])
	}
}

func TestFigureDiffThresholdShape(t *testing.T) {
	f, err := FigureDiffThreshold(2, testIters)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if got := fmt.Sprint(xs(s)); got != "[1 5 15 30]" {
		t.Fatalf("thresholds %s, want [1 5 15 30]", got)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y > s.Points[i-1].Y {
			t.Errorf("send fraction rose from %g at %g%% to %g at %g%%",
				s.Points[i-1].Y, s.Points[i-1].X, s.Points[i].Y, s.Points[i].X)
		}
	}
	if y, _ := s.Y(15); y > 0.3 {
		t.Errorf("send fraction at the paper's 15%% = %g, want at most 0.3", y)
	}
	if first, last := s.Points[0].Y, s.Last().Y; first <= last {
		t.Errorf("the sweep is flat: %g at 1%%, %g at 30%%", first, last)
	}
}

func TestFigureP2PvsCentralShape(t *testing.T) {
	f, err := FigureP2PvsCentral(testNodes, 5)
	if err != nil {
		t.Fatal(err)
	}
	p2p, hub := f.Find("p2p publisher"), f.Find("central hub")
	if x := p2p.Last().X; x != testNodes {
		t.Fatalf("largest cluster %g, want %d", x, testNodes)
	}
	// Counted, not timed, so exact: the publisher sends to n−1 peers; the hub
	// receives n−1 reports and forwards each to the n−2 other members.
	for i, p := range p2p.Points {
		n := p.X
		if p.Y != n-1 || hub.Points[i].Y != (n-1)+(n-1)*(n-2) {
			t.Errorf("%g nodes: p2p %g, hub %g events per round; want %g and %g",
				n, p.Y, hub.Points[i].Y, n-1, (n-1)+(n-1)*(n-2))
		}
	}
	for i := 1; i < len(p2p.Points); i++ {
		prev := hub.Points[i-1].Y / p2p.Points[i-1].Y
		if r := hub.Points[i].Y / p2p.Points[i].Y; r <= prev {
			t.Errorf("hub/p2p ratio %g at %g nodes, not above %g", r, p2p.Points[i].X, prev)
		}
	}
}

func TestFigure9aShape(t *testing.T) {
	f := Figure9a(200*time.Second, 20*time.Second)
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	noF := f.Find("no filter")
	dyn := f.Find("dynamic filter")
	static := f.Find("static filter")
	// Dynamic stays low for the whole run.
	if dyn.Last().Y > 1 {
		t.Errorf("dynamic filter final latency = %gs, want < 1s", dyn.Last().Y)
	}
	// No-filter latency explodes as threads accumulate.
	if noF.Last().Y < 5 {
		t.Errorf("no-filter final latency = %gs, want queued seconds", noF.Last().Y)
	}
	if !(dyn.Last().Y < static.Last().Y && static.Last().Y < noF.Last().Y) {
		t.Errorf("final ordering wrong: dyn=%g static=%g none=%g",
			dyn.Last().Y, static.Last().Y, noF.Last().Y)
	}
	// No-filter grows over time.
	if noF.Last().Y <= noF.Points[0].Y {
		t.Errorf("no-filter latency did not grow: %v", noF.Points)
	}
}

func TestFigure9bShape(t *testing.T) {
	f := Figure9b(6, 30*time.Second)
	noF := f.Find("no filter")
	dyn := f.Find("dynamic filter")
	serverRate := 1 / fig9Interval.Seconds()
	// With no load, every policy sustains the server rate.
	y0, _ := noF.Y(0)
	if y0 < serverRate*0.85 {
		t.Errorf("unloaded no-filter rate = %g, want ~%g", y0, serverRate)
	}
	// Dynamic sustains the rate at max threads; no-filter collapses.
	dynLast := dyn.Last().Y
	if dynLast < serverRate*0.8 {
		t.Errorf("dynamic rate at max threads = %g, want ~%g", dynLast, serverRate)
	}
	if noF.Last().Y > serverRate*0.5 {
		t.Errorf("no-filter rate at max threads = %g, want collapsed", noF.Last().Y)
	}
}

func TestFigure10Shape(t *testing.T) {
	f := Figure10(24 * time.Second)
	noF := f.Find("no filter")
	static := f.Find("static filter")
	dyn := f.Find("dynamic filter")
	flat, _ := noF.Y(0)
	at60, _ := noF.Y(60)
	at90, _ := noF.Y(90)
	// Flat until the stream (≈30Mbps of 100) loses headroom at ~70 Mbps.
	if at60 > flat*3 {
		t.Errorf("no-filter latency rose before the knee: %g vs %g", at60, flat)
	}
	if at90 < at60*5 {
		t.Errorf("no knee: no-filter at90=%g at60=%g", at90, at60)
	}
	// Static (0.57x data) holds longer but also blows up by 90 Mbps.
	s90, _ := static.Y(90)
	if s90 < flat*3 {
		t.Errorf("static filter never saturated: %g", s90)
	}
	// Dynamic adapts and stays low everywhere.
	d90, _ := dyn.Y(90)
	if d90 > 2 {
		t.Errorf("dynamic filter latency at 90 Mbps = %g, want small", d90)
	}
	if !(d90 < s90 && s90 <= at90*1.01) {
		t.Errorf("ordering at 90Mbps wrong: dyn=%g static=%g none=%g", d90, s90, at90)
	}
}

func TestFigure11Shape(t *testing.T) {
	f := Figure11(24 * time.Second)
	cpu := f.Find("cpu monitor")
	net := f.Find("network monitor")
	hyb := f.Find("hybrid monitor")
	// At heavy combined load, hybrid must beat both single-resource monitors.
	hy := hyb.Last().Y
	cy := cpu.Last().Y
	ny := net.Last().Y
	if !(hy < cy && hy < ny) {
		t.Errorf("hybrid (%g) not best at k=8: cpu=%g net=%g", hy, cy, ny)
	}
	// Hybrid stays sane across the sweep.
	for _, p := range hyb.Points {
		if p.Y > 5 {
			t.Errorf("hybrid latency at k=%g is %gs, want bounded", p.X, p.Y)
		}
	}
	// Single-resource monitors degrade as the combined pressure rises.
	if cpu.Last().Y < cpu.Points[0].Y && net.Last().Y < net.Points[0].Y {
		t.Error("neither single-resource monitor degraded under combined load")
	}
}
