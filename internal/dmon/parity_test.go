package dmon_test

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/query"
	"dproc/internal/tsdb"
)

// A node's own percentile (Store.Query, what `query <node>` and
// cluster/<node>/query answer) and a one-node cluster query (query.Run over
// ComputePart, what `queryall` answers) are one engine: over the same
// absolute window they read the same float64 and count the same samples.
// The windows are seeded, below and above 8 192 samples, over an outlier
// set, a set of duplicates, zeros, NaN and negative values, and a wide
// spread; an empty window has no value on either path.
func TestNodePercentileMatchesCluster(t *testing.T) {
	const sec = int64(time.Second)
	rng := rand.New(rand.NewSource(20030623))
	// 10 000 values over [1, 2) and one at 1000: the exact p50 and p99 are
	// 1.5 and 1.99.
	outlier := make([]float64, 0, 10001)
	for i := 0; i < 10000; i++ {
		outlier = append(outlier, 1+float64(i)/10000)
	}
	outlier = append(outlier, 1000)
	rng.Shuffle(len(outlier), func(i, j int) { outlier[i], outlier[j] = outlier[j], outlier[i] })
	pool := []float64{0, 0, 0.5, 0.5, 3, 3, 3, math.NaN(), -1, -1e9, 7.25}
	mixed := make([]float64, 20000)
	for i := range mixed {
		mixed[i] = pool[rng.Intn(len(pool))]
	}
	spread := make([]float64, 12000)
	for i := range spread {
		spread[i] = math.Exp(rng.Float64()*30 - 10)
	}

	store, err := dmon.OpenStore(dmon.StoreOptions{Retention: -1}) // keep every sample
	if err != nil {
		t.Fatal(err)
	}
	t0 := clock.Epoch.UnixNano()
	type window struct {
		node     string
		from, to int64
	}
	var windows []window
	for _, set := range []struct {
		node string
		vals []float64
	}{{"outlier", outlier}, {"mixed", mixed}, {"spread", spread}} {
		node, vals := set.node, set.vals
		for i, v := range vals {
			store.TSDB().Append(dmon.SeriesKey(node, "loadavg"), t0+int64(i)*sec, v)
		}
		windows = append(windows, window{node, t0, t0 + int64(len(vals))*sec})
		for k := 0; k < 6; k++ {
			lo := rng.Intn(len(vals))
			n := 1 + rng.Intn(len(vals)-lo)
			windows = append(windows, window{node, t0 + int64(lo)*sec, t0 + int64(lo+n)*sec})
		}
	}
	windows = append(windows, window{"spread", t0 - 10*sec, t0}) // empty
	var below, above int

	fetch := func(_ context.Context, tg query.Target, q tsdb.Query) (query.Part, error) {
		return query.ComputePart(store.TSDB(), dmon.SeriesKey(tg.Node, q.Metric), q)
	}
	for _, w := range windows {
		for _, agg := range []tsdb.Agg{tsdb.AggP50, tsdb.AggP95, tsdb.AggP99} {
			q := tsdb.Query{Agg: agg, Metric: "loadavg", From: w.from, To: w.to}
			cluster, err := query.Run(context.Background(), []query.Target{{Node: w.node, Addr: w.node}}, q,
				time.Unix(0, w.to), fetch, query.Options{})
			if err != nil || cluster.OK != 1 {
				t.Fatalf("%s %s: cluster query %+v, %v", w.node, q, cluster, err)
			}
			text, err := store.Query(w.node, q.String())
			if !cluster.HasValue {
				if err == nil {
					t.Fatalf("%s %s: the cluster has no value, the node answers\n%s", w.node, q, text)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: node query: %v", w.node, q, err)
			}
			value, samples := renderedValue(t, text)
			if value != cluster.Value || samples != cluster.Count {
				t.Fatalf("%s %s: node reads %v over %d samples, cluster %v over %d", w.node, q, value, samples, cluster.Value, cluster.Count)
			}
			if samples > 8192 {
				above++
			} else {
				below++
			}
			if w.node == "outlier" && w.from == t0 && w.to == t0+int64(len(outlier))*sec {
				want := map[tsdb.Agg]float64{tsdb.AggP50: 1.507327, tsdb.AggP99: 1.998847}
				if v, ok := want[agg]; ok && value != v {
					t.Fatalf("outlier set %s = %v, want %v", agg, value, v)
				}
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("%d windows at or below 8192 samples and %d above; want both", below, above)
	}
}

// renderedValue reads the value and samples lines of a rendered tsdb result.
func renderedValue(t *testing.T, text string) (float64, int64) {
	t.Helper()
	var value float64
	var samples int64
	var err error
	for _, line := range strings.Split(text, "\n") {
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "value":
			value, err = strconv.ParseFloat(rest, 64)
		case "samples":
			samples, err = strconv.ParseInt(rest, 10, 64)
		}
		if err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
	}
	if samples == 0 {
		t.Fatalf("result without samples:\n%s", text)
	}
	return value, samples
}
