package tsdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The exact-nanosecond instant form lets a normalized window written out as
// text (Query.String, below) parse back bit-identical, which float seconds
// cannot guarantee at current epochs.
func TestParseQueryNanosecondInstants(t *testing.T) {
	q, err := ParseQuery("avg loadavg from 1056326400123456789ns to 1056326400123456790ns")
	if err != nil {
		t.Fatal(err)
	}
	if q.From != 1056326400123456789 || q.To != 1056326400123456790 {
		t.Fatalf("window = [%d, %d)", q.From, q.To)
	}
	for _, bad := range []string{
		"avg loadavg from 12ns to xns",
		"avg loadavg from ns to 12ns",
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Fatalf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestQueryStringRoundTrips(t *testing.T) {
	cases := []Query{
		{Agg: AggAvg, Metric: "loadavg", From: 100e9, To: 200e9},
		{Agg: AggP99, Metric: "netbw", From: 1056326400123456789, To: 1056326400123456790},
		{Agg: AggMax, Metric: "freemem", From: 1, To: 2, Res: 10 * time.Second},
		{Agg: AggRate, Metric: "diskreads", Last: 5 * time.Minute},
		{Agg: AggCount, Metric: "loadavg"},
	}
	for _, q := range cases {
		got, err := ParseQuery(q.String())
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", q.String(), err)
		}
		if got != q {
			t.Fatalf("round trip %q: got %+v, want %+v", q.String(), got, q)
		}
	}
}

// WidenWindow must be idempotent: the coordinator pre-widens, the leaves
// widen again, and both must land on the same window or nodes would answer
// different questions.
func TestWidenWindowIdempotent(t *testing.T) {
	res := 10 * time.Second
	cases := [][2]int64{
		{0, 1}, {1, 2}, {5e9, 15e9}, {10e9, 20e9}, {999, 10_000_000_001},
	}
	for _, c := range cases {
		f1, t1 := WidenWindow(c[0], c[1], res)
		if f1 > c[0] || t1 < c[1] {
			t.Fatalf("WidenWindow(%d, %d) = [%d, %d) does not cover the input", c[0], c[1], f1, t1)
		}
		f2, t2 := WidenWindow(f1, t1, res)
		if f1 != f2 || t1 != t2 {
			t.Fatalf("WidenWindow not idempotent: [%d,%d) → [%d,%d)", f1, t1, f2, t2)
		}
	}
	// Degenerate inputs pass through untouched.
	if f, to := WidenWindow(5, 3, res); f != 5 || to != 3 {
		t.Fatalf("inverted window widened to [%d, %d)", f, to)
	}
	if f, to := WidenWindow(5, 7, 0); f != 5 || to != 7 {
		t.Fatalf("raw-resolution window widened to [%d, %d)", f, to)
	}
}

// Every flavor of "nothing to aggregate" must match ErrNoData via errors.Is
// — the cluster layer turns those into empty parts, not failed nodes — while
// the messages stay intact for the control-file surface.
func TestErrNoDataClassification(t *testing.T) {
	db := NewDB(Options{})
	db.Append("n/loadavg", 100, 1)
	db.Append("n/loadavg", 200, 2)

	cases := []Query{
		{Agg: AggAvg, Metric: "missing"},                       // unknown series
		{Agg: AggAvg, Metric: "loadavg", From: 1000, To: 2000}, // empty window
		{Agg: AggRate, Metric: "loadavg", From: 100, To: 101},  // one sample, rate
	}
	for _, q := range cases {
		if q.Metric == "missing" {
			q.Metric = "nope"
		} else {
			q.Metric = "n/loadavg"
		}
		_, err := db.Query(q.Metric, q)
		if err == nil {
			t.Fatalf("query %+v succeeded", q)
		}
		if !errors.Is(err, ErrNoData) {
			t.Fatalf("query %+v: error %q does not match ErrNoData", q, err)
		}
	}

	// A tier the store does not keep is a configuration mismatch, NOT
	// no-data: a cluster coordinator must report that node failed, not
	// silently count it as empty.
	if _, err := db.Query("n/loadavg", Query{Agg: AggAvg, Metric: "n/loadavg", Res: time.Second}); err == nil || errors.Is(err, ErrNoData) {
		t.Fatalf("missing tier: err = %v, want a non-ErrNoData error", err)
	}
}

func TestDBScan(t *testing.T) {
	db := NewDB(Options{})
	for i := int64(0); i < 10; i++ {
		db.Append("n/loadavg", i*100, float64(i))
	}
	var got []Point
	db.Scan("n/loadavg", 200, 700, func(p Point) { got = append(got, p) })
	if len(got) != 5 {
		t.Fatalf("scan returned %d points, want 5", len(got))
	}
	for i, p := range got {
		if p.T != int64(i+2)*100 || p.V != float64(i+2) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	count := 0
	db.Scan("unknown", 0, 1e9, func(Point) { count++ })
	if count != 0 {
		t.Fatalf("scan of a missing series visited %d points", count)
	}
}

// String renders the query back in the grammar ParseQuery accepts, using
// the exact-nanosecond instant form for absolute windows so a re-parse
// resolves the identical window.
func (q Query) String() string {
	var sb strings.Builder
	sb.WriteString(q.Agg.String())
	sb.WriteByte(' ')
	sb.WriteString(q.Metric)
	switch {
	case q.Last > 0:
		fmt.Fprintf(&sb, " last %s", q.Last)
	case q.From != 0 || q.To != 0:
		fmt.Fprintf(&sb, " from %dns to %dns", q.From, q.To)
	}
	if q.Res > 0 {
		fmt.Fprintf(&sb, " @%s", q.Res)
	}
	return sb.String()
}
