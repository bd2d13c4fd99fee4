package tsdb_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dproc/internal/query"
	"dproc/internal/tsdb"
)

// A chunk that fails to decode is an error on every read path that decodes
// it — a scan, a value window, a percentile, an aggregate whose window edge
// falls inside it — never a silently short window; and in a cluster query
// it fails its node, so the result is an annotated partial instead of a
// whole answer missing that node's samples.
func TestCorruptChunkFailsItsNode(t *testing.T) {
	const step = int64(time.Second)
	dbs := map[string]*tsdb.DB{}
	var targets []query.Target
	for _, node := range []string{"n0", "n1", "n2"} {
		db := tsdb.NewDB(tsdb.Options{ChunkSize: 64})
		for i := int64(1); i <= 300; i++ {
			db.Append(node+"/loadavg", i*step, float64(i%7)+0.5)
		}
		dbs[node] = db
		targets = append(targets, query.Target{Node: node, Addr: node + ":0"})
	}
	bad := tsdb.CorruptChunk(dbs["n1"], "n1/loadavg", 1) // samples 65…128
	db := dbs["n1"]

	if err := db.Scan("n1/loadavg", 1, 301*step, func(tsdb.Point) {}); err == nil {
		t.Fatal("Scan over the corrupt chunk: no error")
	}
	whole50 := tsdb.Query{Agg: tsdb.AggP50, Metric: "loadavg", From: 1, To: 301 * step}
	if _, err := db.CountWindow("n1/loadavg", whole50, func(*tsdb.Hist) { t.Fatal("CountWindow lent a short window's counts") }); err == nil {
		t.Fatal("CountWindow over the corrupt chunk: no error")
	}
	edge := tsdb.Query{Agg: tsdb.AggAvg, Metric: "loadavg", From: bad.TMin + 10*step, To: 301 * step}
	for _, q := range []tsdb.Query{edge, {Agg: tsdb.AggP50, Metric: "loadavg", From: 1, To: 301 * step}} {
		if _, err := db.Query("n1/loadavg", q); err == nil || errors.Is(err, tsdb.ErrNoData) {
			t.Fatalf("%s: err %v, want the decode error", q, err)
		}
	}
	// A window wholly inside other chunks, and an aggregate that folds the
	// corrupt chunk's summary without decoding it, still answer.
	clear := tsdb.Query{Agg: tsdb.AggP50, Metric: "loadavg", From: bad.TMax + 1, To: 301 * step}
	whole := tsdb.Query{Agg: tsdb.AggAvg, Metric: "loadavg", From: 1, To: 301 * step}
	for _, q := range []tsdb.Query{clear, whole} {
		if _, err := db.Query("n1/loadavg", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	fetch := func(_ context.Context, tg query.Target, q tsdb.Query) (query.Part, error) {
		return query.ComputePart(dbs[tg.Node], tg.Node+"/loadavg", q)
	}
	for _, c := range []struct {
		q       tsdb.Query
		samples int64 // per healthy node
	}{
		{tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 1, To: 301 * step}, 300},
		{edge, 300 - (bad.TMin/step + 10) + 1},
	} {
		res, err := query.Run(context.Background(), targets, c.q, time.Unix(0, 0), fetch, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n1 := res.Nodes[1]
		if !res.Partial || res.Failed != 1 || n1.OK() || !strings.Contains(n1.Err, "bitstream exhausted") ||
			res.Count != 2*c.samples {
			t.Fatalf("%s: want n1 failed with its decode error and %d samples merged:\n%s", c.q, 2*c.samples, res.Render())
		}
		if !strings.Contains(res.Render(), fmt.Sprintf("node n1 error %s", n1.Err)) {
			t.Fatalf("%s: render hides n1's error:\n%s", c.q, res.Render())
		}
	}
}
