package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want Query
	}{
		{"avg loadavg", Query{Agg: AggAvg, Metric: "loadavg"}},
		{"p95 netbw last 90s", Query{Agg: AggP95, Metric: "netbw", Last: 90 * time.Second}},
		{"max freemem from 100 to 200", Query{Agg: AggMax, Metric: "freemem", From: 100e9, To: 200e9}},
		{"min loadavg from 100.5 to 101.5", Query{Agg: AggMin, Metric: "loadavg", From: 100.5e9, To: 101.5e9}},
		{"sum diskreads last 5m @60s", Query{Agg: AggSum, Metric: "diskreads", Last: 5 * time.Minute, Res: time.Minute}},
		{"rate netbw @10s", Query{Agg: AggRate, Metric: "netbw", Res: 10 * time.Second}},
		{"count loadavg @raw", Query{Agg: AggCount, Metric: "loadavg"}},
		{"avg loadavg from 2003-06-23T00:00:00Z to 2003-06-23T00:01:00Z",
			Query{Agg: AggAvg, Metric: "loadavg",
				From: time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC).UnixNano(),
				To:   time.Date(2003, 6, 23, 0, 1, 0, 0, time.UTC).UnixNano()}},
	}
	for _, c := range cases {
		got, err := ParseQuery(c.in)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseQuery(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	bad := []string{
		"", "avg", "frobnicate loadavg", "avg loadavg last", "avg loadavg last -5s",
		"avg loadavg from 200 to 100", "avg loadavg from 1 to 2 extra",
		"avg loadavg @nope", "avg loadavg @10s @60s", "avg loadavg from x to y",
	}
	for _, in := range bad {
		if _, err := ParseQuery(in); err == nil {
			t.Fatalf("ParseQuery(%q) accepted", in)
		}
	}
}

// reference computes aggregates naively over the same points.
func reference(pts []Point, from, to int64) (min, max, sum float64, count int64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if p.T < from || p.T >= to {
			continue
		}
		count++
		sum += p.V
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	return
}

func TestQueryAggregatesMatchReference(t *testing.T) {
	s := NewSeries(Options{ChunkSize: 32})
	rng := rand.New(rand.NewSource(7))
	var pts []Point
	for i := 0; i < 5000; i++ {
		p := Point{T: int64(i) * sec, V: rng.NormFloat64() * 10}
		s.Append(p.T, p.V)
		pts = append(pts, p)
	}
	// Windows chosen to hit chunk edges, full coverage, and partial chunks.
	windows := [][2]int64{
		{0, 5000 * sec}, {17 * sec, 4311 * sec}, {32 * sec, 64 * sec},
		{1000 * sec, 1001 * sec}, {999*sec + 1, 1000*sec + 1},
	}
	for _, w := range windows {
		from, to := w[0], w[1]
		min, max, sum, count := reference(pts, from, to)
		for _, agg := range []Agg{AggMin, AggMax, AggAvg, AggSum, AggCount} {
			res, err := s.Query(Query{Agg: agg, From: from, To: to})
			if err != nil {
				t.Fatalf("%s over [%d,%d): %v", agg, from, to, err)
			}
			var want float64
			switch agg {
			case AggMin:
				want = min
			case AggMax:
				want = max
			case AggSum:
				want = sum
			case AggCount:
				want = float64(count)
			case AggAvg:
				want = sum / float64(count)
			}
			if math.Abs(res.Value-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s over [%d,%d) = %g, want %g", agg, from, to, res.Value, want)
			}
			if res.Count != count {
				t.Fatalf("%s count = %d, want %d", agg, res.Count, count)
			}
		}
	}
}

func TestQueryHalfOpenWindow(t *testing.T) {
	s := NewSeries(Options{})
	fill(s, 0, 10)
	res, err := s.Query(Query{Agg: AggCount, From: 2 * sec, To: 5 * sec})
	if err != nil {
		t.Fatal(err)
	}
	// [2s, 5s) holds t=2,3,4 — the sample at t=5s is excluded.
	if res.Count != 3 {
		t.Fatalf("count over [2s,5s) = %d, want 3", res.Count)
	}
}

func TestQueryLastWindow(t *testing.T) {
	s := NewSeries(Options{})
	fill(s, 0, 100)
	res, err := s.Query(Query{Agg: AggAvg, Last: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Newest sample is t=99s/v=99; [to-10s, to) with to=99s+1ns holds
	// samples 90..99.
	if res.Count != 10 || res.Value != 94.5 {
		t.Fatalf("avg last 10s = %g over %d samples, want 94.5 over 10", res.Value, res.Count)
	}
}

func TestQueryFullRangeDefault(t *testing.T) {
	s := NewSeries(Options{})
	fill(s, 1000*sec, 50)
	res, err := s.Query(Query{Agg: AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 50 || res.From != 1000*sec || res.To != 1049*sec+1 {
		t.Fatalf("full-range result = %+v", res)
	}
}

func TestQueryRate(t *testing.T) {
	s := NewSeries(Options{})
	// A counter climbing 5 units/second.
	for i := 0; i < 100; i++ {
		s.Append(int64(i)*sec, float64(i*5))
	}
	res, err := s.Query(Query{Agg: AggRate, From: 10 * sec, To: 60 * sec})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-5) > 1e-9 {
		t.Fatalf("rate = %g, want 5", res.Value)
	}
	one := NewSeries(Options{})
	one.Append(0, 1)
	if _, err := one.Query(Query{Agg: AggRate}); err == nil {
		t.Fatal("rate over one sample succeeded")
	}
}

func TestQueryPercentilesExact(t *testing.T) {
	s := NewSeries(Options{})
	// Values 1..1000 shuffled in time order but distinct: percentiles are
	// order statistics regardless of time order of equal-spaced appends. The
	// answer is the upper bound of the obs bucket holding the order
	// statistic at rank ⌈q·n⌉: 500, 950 and 990 count in the buckets ending
	// at these values.
	perm := rand.New(rand.NewSource(3)).Perm(1000)
	for i, v := range perm {
		s.Append(int64(i)*sec, float64(v+1))
	}
	for _, c := range []struct {
		agg  Agg
		want float64
	}{{AggP50, 503.316479}, {AggP95, 956.301311}, {AggP99, 1006.632959}} {
		res, err := s.Query(Query{Agg: c.agg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != c.want {
			t.Fatalf("%s = %g, want %g", c.agg, res.Value, c.want)
		}
	}
}

func TestQueryPercentilesApproximate(t *testing.T) {
	s := NewSeries(Options{})
	n := 4 * 8192
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = rng.Float64() * 100
		s.Append(int64(i)*sec, vals[i])
	}
	sort.Float64s(vals)
	for _, c := range []struct {
		agg Agg
		q   float64
	}{{AggP50, 0.5}, {AggP95, 0.95}, {AggP99, 0.99}} {
		res, err := s.Query(Query{Agg: c.agg})
		if err != nil {
			t.Fatal(err)
		}
		exact := vals[int(math.Ceil(c.q*float64(n)))-1]
		if want := BucketBound(exact); res.Value != want {
			t.Fatalf("%s = %g, want %g: the bound of the bucket holding the exact %g", c.agg, res.Value, want, exact)
		}
	}
}

func TestQueryTierAggregates(t *testing.T) {
	s := NewSeries(Options{Tiers: []TierSpec{{Interval: 10 * time.Second}}})
	fill(s, 0, 100) // values 0..99
	res, err := s.Query(Query{Agg: AggAvg, From: 0, To: 100 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 49.5 || res.Count != 100 {
		t.Fatalf("tier avg = %g over %d, want 49.5 over 100", res.Value, res.Count)
	}
	mx, err := s.Query(Query{Agg: AggMax, From: 0, To: 30 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if mx.Value != 29 {
		t.Fatalf("tier max over first 3 buckets = %g, want 29", mx.Value)
	}
	if _, err := s.Query(Query{Agg: AggP95, Res: 10 * time.Second}); err == nil {
		t.Fatal("tier percentile succeeded")
	}
	if _, err := s.Query(Query{Agg: AggAvg, Res: 7 * time.Second}); err == nil {
		t.Fatal("query on missing tier succeeded")
	}
}

// TestQueryTierWindowEdges pins the bucket-inclusion convention at both
// window edges: tier buckets are indivisible, the window is widened outward
// to bucket boundaries, and a bucket straddling either edge counts entirely
// — symmetrically. Samples are 1 s apart with value == second, tier is 10 s.
func TestQueryTierWindowEdges(t *testing.T) {
	s := NewSeries(Options{Tiers: []TierSpec{{Interval: 10 * time.Second}}})
	fill(s, 0, 100) // t = 0..99 s, value = t in seconds

	// [5s, 25s) straddles buckets [0,10) and [20,30) — both edge buckets
	// count entirely, so the aggregate covers samples 0..29.
	res, err := s.Query(Query{Agg: AggCount, From: 5 * sec, To: 25 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 30 {
		t.Fatalf("count over [5s,25s) = %d, want 30 (whole straddled buckets)", res.Count)
	}
	// The resolved window reports the widened bucket-aligned range.
	if res.From != 0 || res.To != 30*sec {
		t.Fatalf("resolved window = [%d, %d), want [0, %d)", res.From, res.To, 30*sec)
	}
	mn, err := s.Query(Query{Agg: AggMin, From: 5 * sec, To: 25 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := s.Query(Query{Agg: AggMax, From: 5 * sec, To: 25 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if mn.Value != 0 || mx.Value != 29 {
		t.Fatalf("min/max over [5s,25s) = %g/%g, want 0/29", mn.Value, mx.Value)
	}

	// Bucket-aligned windows are untouched: [10s, 30s) is exactly buckets
	// [10,20) and [20,30).
	aligned, err := s.Query(Query{Agg: AggCount, From: 10 * sec, To: 30 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if aligned.Count != 20 || aligned.From != 10*sec || aligned.To != 30*sec {
		t.Fatalf("aligned window = %d samples over [%d, %d), want 20 over [%d, %d)",
			aligned.Count, aligned.From, aligned.To, 10*sec, 30*sec)
	}

	// Symmetry: a window nudged across the from edge gains the same bucket
	// a mirror-nudged to edge would — avg over [9s, 21s) and [10s, 22s)
	// both resolve to whole buckets, never a partial one.
	left, err := s.Query(Query{Agg: AggAvg, From: 9 * sec, To: 20 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if left.Count != 20 || left.From != 0 {
		t.Fatalf("from-straddling window kept %d samples from %d, want 20 from 0", left.Count, left.From)
	}
	right, err := s.Query(Query{Agg: AggAvg, From: 10 * sec, To: 21 * sec, Res: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if right.Count != 20 || right.To != 30*sec {
		t.Fatalf("to-straddling window kept %d samples to %d, want 20 to %d", right.Count, right.To, 30*sec)
	}
}

// TestTierAggregatesEqualRaw: while the raw samples are still retained, a
// tier query answers exactly what a raw query over the widened window does,
// for every aggregate a tier serves. For rate that took the bucket's sample
// times: from bucket starts alone, a counter rising 1/s sampled at 1 Hz for
// 60 s gave 1.18 over the minute @10s and 1.3 over its last 30 s. Values
// are integers, so sums are exact in either order and results compare by
// their bits.
func TestTierAggregatesEqualRaw(t *testing.T) {
	tiers := DefaultTiers(0)
	counter := NewSeries(Options{Tiers: tiers})
	fill(counter, 0, 60)
	for _, q := range []Query{
		{Agg: AggRate, From: 0, To: 60 * sec, Res: 10 * time.Second},
		{Agg: AggRate, Last: 30 * time.Second, Res: 10 * time.Second},
	} {
		if res, err := counter.Query(q); err != nil || res.Value != 1 {
			t.Fatalf("%+v: rate %g (%v), want 1", q, res.Value, err)
		}
	}

	aggs := []Agg{AggMin, AggMax, AggSum, AggCount, AggAvg, AggRate}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSeries(Options{ChunkSize: 32, Tiers: tiers})
		t0 := rng.Int63n(100 * sec)
		ts := t0
		for i := 0; i < 3000; i++ {
			if rng.Intn(50) == 0 {
				ts += rng.Int63n(300 * sec) // skips buckets
			}
			ts += 1 + rng.Int63n(4*sec)
			s.Append(ts, float64(rng.Intn(1000)))
		}
		span := ts - t0
		for k := 0; k < 300; k++ {
			q := Query{Agg: aggs[rng.Intn(len(aggs))], Res: tiers[rng.Intn(len(tiers))].Interval}
			if rng.Intn(4) == 0 {
				q.Last = time.Duration(1 + rng.Int63n(span/8))
			} else {
				q.From = t0 - 20*sec + rng.Int63n(span)
				q.To = q.From + 1 + rng.Int63n(span/8)
			}
			got, gotErr := s.Query(q)
			raw := Query{Agg: q.Agg, From: got.From, To: got.To}
			if q.Last > 0 {
				raw.From, raw.To = WidenWindow(ts+1-q.Last.Nanoseconds(), ts+1, q.Res)
			}
			want, wantErr := s.Query(raw)
			if errors.Is(gotErr, ErrNoData) != errors.Is(wantErr, ErrNoData) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d %+v: tier error %v, raw error %v", seed, q, gotErr, wantErr)
			}
			if gotErr == nil && (got.Count != want.Count || math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
				got.From != want.From || got.To != want.To) {
				t.Fatalf("seed %d %+v: tier %+v, raw %+v", seed, q, got, want)
			}
		}
	}
}

func TestResultRender(t *testing.T) {
	r := Result{Agg: AggAvg, From: 100e9, To: 160e9, Count: 60, Value: 1.52}
	out := r.Render()
	for _, want := range []string{"agg avg\n", "value 1.52\n", "samples 60\n", "from 100.000\n", "to 160.000\n", "resolution raw\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() = %q, missing %q", out, want)
		}
	}
	r.Res = time.Minute
	if !strings.Contains(r.Render(), "resolution 1m0s") {
		t.Fatalf("Render() = %q, missing tier resolution", r.Render())
	}
}

func TestQueryEmptyWindows(t *testing.T) {
	s := NewSeries(Options{})
	if _, err := s.Query(Query{Agg: AggAvg}); err == nil {
		t.Fatal("full-range query on empty series succeeded")
	}
	fill(s, 0, 10)
	if _, err := s.Query(Query{Agg: AggAvg, From: 100 * sec, To: 200 * sec}); err == nil {
		t.Fatal("query over empty window succeeded")
	}
}
