package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1..1000 is 990, leaving ten samples beyond it.
	for _, c := range []struct{ q, want float64 }{{0.50, 500}, {0.99, 990}, {1, 1000}, {0.001, 1}} {
		if got := percentile(asc, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile empty = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) from CPython 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // the exclusive method extrapolates
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 ((8.25-2.75)/5.5)", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 90, End: 130}, // only 10 of it lies inside the parent
		{Name: "orphan", ID: 4, Parent: 99, Start: 0, End: 7},
	}
	self := selfTimes(spans)
	if got := self["parent"]; len(got) != 1 || got[0] != 60 {
		t.Errorf("parent self = %v, want [60]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Errorf("child self = %v, want [30 40]", got)
	}
	if got := self["orphan"]; len(got) != 1 || got[0] != 7 {
		t.Errorf("orphan self = %v, want [7]", got)
	}
}

func TestPayloadOracle(t *testing.T) {
	p := newPayloads(7, 64)
	for seq := uint64(1); seq <= 100; seq++ {
		b := append([]byte(nil), p.next(seq)...)
		if len(b) != 64 || !checkPayload(b, seq) {
			t.Fatalf("event %d does not verify", seq)
		}
		if checkPayload(b, seq+1) {
			t.Fatalf("event %d verifies as %d", seq, seq+1)
		}
		b[3] ^= 1
		if checkPayload(b, seq) {
			t.Fatalf("corrupt event %d verifies", seq)
		}
	}
	if bytes.Equal(newPayloads(7, 64).next(1), newPayloads(8, 64).next(1)) {
		t.Error("different seeds gave the same payload")
	}
	if !bytes.Equal(newPayloads(7, 64).next(1), newPayloads(7, 64).next(1)) {
		t.Error("the same seed gave different payloads")
	}
	s := sequence{next: 1}
	for _, c := range []struct {
		seq uint64
		ok  bool
	}{{1, true}, {2, true}, {2, false}, {3, true}, {5, false}, {6, true}, {4, false}} {
		if got := s.accept(c.seq); got != c.ok {
			t.Errorf("accept(%d) = %v, want %v", c.seq, got, c.ok)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v * 1.005, v * 0.995, v} }
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady(100), steady(100), lower, verdictOK},
		{"lower-better got 20% higher", steady(100), steady(120), lower, verdictRegressed},
		{"lower-better got 20% lower", steady(100), steady(80), lower, verdictOK},
		{"higher-better got 20% lower", steady(100), steady(80), higher, verdictRegressed},
		{"higher-better got 20% higher", steady(100), steady(120), higher, verdictOK},
		{"within the bound", steady(100), steady(108), lower, verdictOK},
		{"spread wider than the bound", []float64{60, 80, 100, 120, 140, 160}, steady(300), lower, verdictUnresolved},
		{"no runs", nil, steady(100), lower, verdictMissing},
	} {
		if got, _, _, _, _ := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) *resultSet {
		rs := &resultSet{}
		for _, w := range spec.Workloads {
			for i := 0; i < 4; i++ {
				rec := runRecord{Workload: w.Name, Seed: int64(i), runResult: *newResult()}
				for _, m := range spec.EndToEnd {
					v := 10 + 0.01*float64(i)
					if m.Name == spec.EndToEnd[1].Name {
						v *= scale
					}
					rec.Metrics[m.Name] = Metric{v, m.Unit}
				}
				rs.Runs = append(rs.Runs, rec)
			}
		}
		return rs
	}
	var out bytes.Buffer
	if reg, unres := compareSets(&out, spec, mk(1), mk(1)); reg != 0 || unres != 0 {
		t.Errorf("identical sets: %d regressed, %d unresolved\n%s", reg, unres, out.String())
	}
	worse := 2.0
	if spec.EndToEnd[1].Better == "higher" {
		worse = 0.5
	}
	out.Reset()
	if reg, _ := compareSets(&out, spec, mk(1), mk(worse)); reg != len(spec.Workloads) {
		t.Errorf("%s made worse on every workload: %d regressed, want %d\n%s", spec.EndToEnd[1].Name, reg, len(spec.Workloads), out.String())
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkEmitted asserts that a run emitted exactly the declared metrics, each
// with its declared unit.
func checkEmitted(t *testing.T, got map[string]Metric, want []metricSpec) {
	t.Helper()
	declared := map[string]string{}
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared metric %q is not a valid name", m.Name)
		}
		if _, dup := declared[m.Name]; dup {
			t.Errorf("metric %q declared twice", m.Name)
		}
		declared[m.Name] = m.Unit
	}
	for name, unit := range declared {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("declared metric %q was not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %q emitted in %q, declared in %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %q = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("metric %q emitted but not declared in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload for 300 ms, untraced and traced: zero loss,
// every check passing, and the metrics emitted being exactly those
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if strings.ContainsAny(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %q: why must be one line", w.Name)
		}
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Errorf("BENCHMARK.json declares workload %q, the program has none", w.Name)
			continue
		}
		p := runParams{seed: 42, seconds: 0.3, outDir: t.TempDir(), setups: 1, warmup: 50 * time.Millisecond}
		for _, mode := range []struct {
			name string
			run  func(runParams) (*runResult, error)
			want []metricSpec
		}{{"untraced", wl.run, spec.EndToEnd}, {"traced", wl.trace, spec.PerLayer}} {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				p.traced = mode.name == "traced"
				res, err := mode.run(p)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				checkEmitted(t, res.Metrics, mode.want)
			})
		}
	}
}
