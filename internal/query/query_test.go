package query

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/leakcheck"
	"dproc/internal/obs"
	"dproc/internal/tsdb"
)

// quantileTolerance bounds the allowed relative error of a merged cluster
// percentile against the exact pooled-population quantile: the obs buckets
// carry ~3.1% relative error, plus a little slack for rank rounding.
const quantileTolerance = 0.05

func TestPartWireRoundTrip(t *testing.T) {
	parts := []Part{
		{From: 100, To: 200, Count: 7, Value: 3.25},
		{From: 1056326400123456789, To: 1056326400123456790, Count: 0, Value: 0},
		{From: 5, To: 9, Count: 4, Buckets: []BucketCount{{0, 1}, {17, 2}, {1500, 1}}},
		{From: 5, To: 9, Count: 0, Buckets: []BucketCount{}},
	}
	// The binary form, byte for byte: from, to and count as zig-zag
	// varints, the kind, then the value's bits or the pairs.
	golden := []string{
		"c801 9003 0e 01 00000000 00000a40",
		"aab4cee3f4d0e9a81d acb4cee3f4d0e9a81d 00 01 00000000 00000000",
		"0a 12 08 02 03 0001 1102 cb0b01",
		"0a 12 00 02 00",
	}
	for k, p := range parts {
		want, err := hex.DecodeString(strings.ReplaceAll(golden[k], " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendBinary(%+v) = %x, want %x", p, got, want)
		}
		got, err := DecodePart(want)
		if err != nil {
			t.Fatalf("DecodePart(%x): %v", want, err)
		}
		if got.From != p.From || got.To != p.To || got.Count != p.Count || got.Value != p.Value {
			t.Fatalf("round trip %+v → %+v", p, got)
		}
		if (got.Buckets == nil) != (p.Buckets == nil) || !slices.Equal(got.Buckets, p.Buckets) {
			t.Fatalf("buckets %v → %v", p.Buckets, got.Buckets)
		}
	}
	for _, bad := range []struct{ name, hex string }{
		{"trailing byte", "0a 12 08 02 03 0001 1102 cb0b01 00"},
		{"indices that do not ascend", "0a 12 04 02 02 1101 0003"},
		{"index outside the layout", "0a 12 02 02 01 e00e02"},
		{"index past the layout by delta", "0a 12 04 02 02 1101 d00e03"},
		{"overlong varint", "8a00 12 00 01 0000000000000000"},
		{"short value", "0a 12 00 01 000000000000"},
		{"unknown kind", "0a 12 00 03"},
		{"no kind", "0a 12 00"},
		{"1 888 buckets claimed in 3 bytes", "02 04 00 02 e00e 000101"},
		{"truncated pair", "0a 12 02 02 01 01"},
	} {
		b, err := hex.DecodeString(strings.ReplaceAll(bad.hex, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if p, err := DecodePart(b); err == nil {
			t.Fatalf("%s: DecodePart(%x) = %+v, want an error", bad.name, b, p)
		}
	}
}

// A part whose bucket count claims more pairs than its bytes can hold is
// refused before the bucket list is sized by the claim: a 9-byte part that
// claims the whole layout (1 888 buckets, a 30 KB list) allocates less
// than 1 KiB, its error.
func TestPartClaimAllocatesOnlyWhatArrives(t *testing.T) {
	b, err := hex.DecodeString("020400" + "02e00e000101")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		if _, err := DecodePart(b); err == nil {
			t.Fatal("a part claiming 1888 buckets in 3 bytes decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / 1000; n >= 1024 {
		t.Fatalf("a refused claim allocated %d bytes", n)
	}
}

func TestNormalize(t *testing.T) {
	now := time.Unix(1056326400, 500)

	q, err := Normalize(tsdb.Query{Agg: tsdb.AggAvg, Metric: "m", Last: time.Minute}, now)
	if err != nil {
		t.Fatal(err)
	}
	if q.Last != 0 || q.To != now.UnixNano()+1 || q.From != q.To-time.Minute.Nanoseconds() {
		t.Fatalf("normalized = %+v", q)
	}
	// Normalizing an already-normalized query is a no-op, so coordinator and
	// leaves agree on the window bit-for-bit.
	q2, err := Normalize(q, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q {
		t.Fatalf("re-normalize changed the query: %+v → %+v", q, q2)
	}

	// Tier windows come back pre-widened to whole buckets.
	qt, err := Normalize(tsdb.Query{Agg: tsdb.AggAvg, Metric: "m", From: 5e9, To: 15e9, Res: 10 * time.Second}, now)
	if err != nil {
		t.Fatal(err)
	}
	wf, wt := tsdb.WidenWindow(5e9, 15e9, 10*time.Second)
	if qt.From != wf || qt.To != wt {
		t.Fatalf("tier window = [%d, %d), want [%d, %d)", qt.From, qt.To, wf, wt)
	}

	if _, err := Normalize(tsdb.Query{Agg: tsdb.AggAvg, Metric: "m"}, now); err == nil {
		t.Fatal("windowless query accepted")
	}
	if _, err := Normalize(tsdb.Query{Agg: tsdb.AggP99, Metric: "m", Last: time.Minute, Res: time.Second}, now); err == nil {
		t.Fatal("percentile at tier resolution accepted")
	}
}

// clusterFixture builds n per-node stores with the given per-node sample
// populations and returns targets plus an in-process Fetch that computes
// parts locally — the merge rules under test, minus the network.
func clusterFixture(t *testing.T, pops [][]float64) ([]Target, Fetch, map[string]*tsdb.DB) {
	t.Helper()
	dbs := make(map[string]*tsdb.DB, len(pops))
	targets := make([]Target, len(pops))
	for i, pop := range pops {
		name := fmt.Sprintf("node%d", i)
		db := tsdb.NewDB(tsdb.Options{})
		for j, v := range pop {
			db.Append(name+"/m", int64(j+1)*1e6, v)
		}
		dbs[name] = db
		targets[i] = Target{Node: name, Addr: name + ":0"}
	}
	fetch := func(_ context.Context, tg Target, q tsdb.Query) (Part, error) {
		return ComputePart(dbs[tg.Node], tg.Node+"/m", q)
	}
	return targets, fetch, dbs
}

// window covers every sample the fixture appends.
var fixtureQueryWindow = struct{ From, To int64 }{1, int64(1e12)}

func runFixture(t *testing.T, targets []Target, fetch Fetch, agg tsdb.Agg) Result {
	t.Helper()
	res, err := Run(context.Background(), targets,
		tsdb.Query{Agg: agg, Metric: "m", From: fixtureQueryWindow.From, To: fixtureQueryWindow.To},
		time.Unix(0, 0), fetch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func pooledQuantile(pop []float64, q float64) float64 {
	s := append([]float64(nil), pop...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// The tentpole correctness guard: cluster percentiles merged from per-node
// histogram parts must equal the quantile of the pooled population (within
// bucket error) even when per-node distributions are wildly skewed — the
// regime where averaging per-node percentiles is badly wrong.
func TestMergedPercentilesMatchPooledPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Three deliberately different shapes: a tight low cluster, a wide
	// uniform spread, and a heavy tail two decades above the rest.
	pops := [][]float64{make([]float64, 400), make([]float64, 300), make([]float64, 50)}
	for i := range pops[0] {
		pops[0][i] = 1 + 0.1*rng.Float64()
	}
	for i := range pops[1] {
		pops[1][i] = 5 + 10*rng.Float64()
	}
	for i := range pops[2] {
		pops[2][i] = 400 + 200*rng.Float64()
	}
	var pooled []float64
	for _, p := range pops {
		pooled = append(pooled, p...)
	}

	targets, fetch, _ := clusterFixture(t, pops)
	for _, c := range []struct {
		agg tsdb.Agg
		q   float64
	}{{tsdb.AggP50, 0.50}, {tsdb.AggP95, 0.95}, {tsdb.AggP99, 0.99}} {
		res := runFixture(t, targets, fetch, c.agg)
		if res.Partial || res.Failed != 0 || res.Count != int64(len(pooled)) {
			t.Fatalf("%v: unexpected fan-out state %+v", c.agg, res)
		}
		want := pooledQuantile(pooled, c.q)
		if rel := math.Abs(res.Value-want) / want; rel > quantileTolerance {
			t.Fatalf("%v = %g, pooled %g (relative error %.3f)", c.agg, res.Value, want, rel)
		}
		// The merged histogram serves other quantiles without re-querying.
		if res.Hist == nil || res.Hist.Count != uint64(len(pooled)) {
			t.Fatalf("%v: merged histogram missing or short: %+v", c.agg, res.Hist)
		}
	}

	// Demonstrate the bug the histogram merge exists to avoid: the mean of
	// per-node p99s is nowhere near the pooled p99.
	var avgP99 float64
	for _, pop := range pops {
		avgP99 += pooledQuantile(pop, 0.99)
	}
	avgP99 /= float64(len(pops))
	want := pooledQuantile(pooled, 0.99)
	if rel := math.Abs(avgP99-want) / want; rel < 0.25 {
		t.Fatalf("fixture too tame: averaged per-node p99 %g is within 25%% of pooled %g", avgP99, want)
	}
}

func TestMergedArithmeticAggregates(t *testing.T) {
	pops := [][]float64{{1, 2, 3}, {10, 20}, {0.5}}
	targets, fetch, _ := clusterFixture(t, pops)

	var pooled []float64
	for _, p := range pops {
		pooled = append(pooled, p...)
	}
	sum := 0.0
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range pooled {
		sum += v
		min = math.Min(min, v)
		max = math.Max(max, v)
	}

	for _, c := range []struct {
		agg  tsdb.Agg
		want float64
	}{
		{tsdb.AggMin, min},
		{tsdb.AggMax, max},
		{tsdb.AggSum, sum},
		{tsdb.AggAvg, sum / float64(len(pooled))},
		{tsdb.AggCount, float64(len(pooled))},
	} {
		res := runFixture(t, targets, fetch, c.agg)
		if !res.HasValue || math.Abs(res.Value-c.want) > 1e-9 {
			t.Fatalf("%v = (%g, %t), want %g", c.agg, res.Value, res.HasValue, c.want)
		}
		if res.Count != int64(len(pooled)) {
			t.Fatalf("%v count = %d, want %d", c.agg, res.Count, len(pooled))
		}
	}
}

// A node with no samples in the window is an empty contribution, not a
// failure — and a cluster with no samples anywhere reports "no value"
// rather than zero.
func TestEmptyPartsAreNotFailures(t *testing.T) {
	targets, fetch, _ := clusterFixture(t, [][]float64{{1, 2, 3}, {}})
	res := runFixture(t, targets, fetch, tsdb.AggAvg)
	if res.Partial || res.Failed != 0 || res.OK != 2 {
		t.Fatalf("empty node counted as failure: %+v", res)
	}
	if !res.HasValue || res.Value != 2 || res.Count != 3 {
		t.Fatalf("avg = (%g, %t) over %d", res.Value, res.HasValue, res.Count)
	}

	targets, fetch, _ = clusterFixture(t, [][]float64{{}, {}})
	res = runFixture(t, targets, fetch, tsdb.AggAvg)
	if res.HasValue || res.Count != 0 || res.Partial {
		t.Fatalf("all-empty cluster: %+v", res)
	}
	if !strings.Contains(res.Render(), "value none") {
		t.Fatalf("render hides the missing value:\n%s", res.Render())
	}
}

func TestFailedNodeYieldsAnnotatedPartial(t *testing.T) {
	targets, fetch, _ := clusterFixture(t, [][]float64{{1, 2, 3}, {10, 20, 30}})
	failing := func(ctx context.Context, tg Target, q tsdb.Query) (Part, error) {
		if tg.Node == "node1" {
			return Part{}, fmt.Errorf("connection refused")
		}
		return fetch(ctx, tg, q)
	}
	res, err := Run(context.Background(), targets,
		tsdb.Query{Agg: tsdb.AggSum, Metric: "m", From: 1, To: 1e12},
		time.Unix(0, 0), failing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.OK != 1 || res.Failed != 1 {
		t.Fatalf("partial state: %+v", res)
	}
	if res.Value != 6 || res.Count != 3 {
		t.Fatalf("surviving sum = %g over %d", res.Value, res.Count)
	}
	var failedLine string
	for _, ns := range res.Nodes {
		if !ns.OK() {
			failedLine = ns.Node + ": " + ns.Err
		}
	}
	if !strings.Contains(failedLine, "node1") || !strings.Contains(failedLine, "connection refused") {
		t.Fatalf("failure not annotated: %q", failedLine)
	}
	if !strings.Contains(res.Render(), "partial true") {
		t.Fatalf("render hides partiality:\n%s", res.Render())
	}
}

// A part that cannot answer the query it was asked fails its node instead
// of skewing the merge: a percentile part whose buckets do not hold its
// count (a reply cut short after "count 5" parsed as one), a part for
// another window, an arithmetic part with buckets.
func TestRunFailsContradictoryParts(t *testing.T) {
	targets, fetch, _ := clusterFixture(t, [][]float64{{1, 2, 3}, {10, 20, 30}})
	w := fixtureQueryWindow
	for _, c := range []struct {
		name string
		agg  tsdb.Agg
		bad  Part
	}{
		{"count without buckets", tsdb.AggP99, Part{From: w.From, To: w.To, Count: 5}},
		{"buckets short of count", tsdb.AggP99, Part{From: w.From, To: w.To, Count: 5, Buckets: []BucketCount{{3, 4}}}},
		{"bucket outside layout", tsdb.AggP99, Part{From: w.From, To: w.To, Count: 1, Buckets: []BucketCount{{-1, 1}}}},
		{"overflowing buckets", tsdb.AggP99, Part{From: w.From, To: w.To, Count: 1, Buckets: []BucketCount{{1, 1 << 63}, {2, 1<<63 + 1}}}},
		{"other window", tsdb.AggSum, Part{From: w.From, To: w.To - 1, Count: 5, Value: 7}},
		{"arithmetic with buckets", tsdb.AggSum, Part{From: w.From, To: w.To, Count: 1, Value: 7, Buckets: []BucketCount{{3, 1}}}},
		{"negative count", tsdb.AggSum, Part{From: w.From, To: w.To, Count: -2, Value: 7}},
	} {
		bad := func(ctx context.Context, tg Target, q tsdb.Query) (Part, error) {
			if tg.Node == "node1" {
				return c.bad, nil
			}
			return fetch(ctx, tg, q)
		}
		res := runFixture(t, targets, bad, c.agg)
		if !res.Partial || res.OK != 1 || res.Nodes[1].OK() || res.Count != 3 {
			t.Fatalf("%s: want node1 failed and 3 samples merged:\n%s", c.name, res.Render())
		}
	}
}

// A straggler that honors its context is cut off at the per-node timeout:
// the fan-out returns an annotated partial well before the straggler's own
// schedule, and no goroutine is left behind.
func TestStragglerBoundedByTimeout(t *testing.T) {
	targets, fetch, _ := clusterFixture(t, [][]float64{{1}, {2}, {3}})
	straggling := func(ctx context.Context, tg Target, q tsdb.Query) (Part, error) {
		if tg.Node == "node2" {
			<-ctx.Done() // a hung peer, but the client honors cancellation
			return Part{}, ctx.Err()
		}
		return fetch(ctx, tg, q)
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	res, err := Run(context.Background(), targets,
		tsdb.Query{Agg: tsdb.AggSum, Metric: "m", From: 1, To: 1e12},
		time.Unix(0, 0), straggling, Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fan-out took %v despite a 50ms per-node timeout", elapsed)
	}
	if !res.Partial || res.OK != 2 || res.Failed != 1 || res.Value != 3 {
		t.Fatalf("straggler result: %+v", res)
	}
	leakcheck.Goroutines(t, "after the straggler was cut off", 0, before)
}

func TestFanOutConcurrencyIsBounded(t *testing.T) {
	const nodes, limit = 12, 3
	pops := make([][]float64, nodes)
	for i := range pops {
		pops[i] = []float64{1}
	}
	targets, fetch, _ := clusterFixture(t, pops)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	counting := func(ctx context.Context, tg Target, q tsdb.Query) (Part, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // hold the slot so overlap is observable
		return fetch(ctx, tg, q)
	}
	res, err := Run(context.Background(), targets,
		tsdb.Query{Agg: tsdb.AggCount, Metric: "m", From: 1, To: 1e12},
		time.Unix(0, 0), counting, Options{Concurrency: limit})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != nodes {
		t.Fatalf("ok = %d, want %d", res.OK, nodes)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrency %d exceeds limit %d", p, limit)
	}
}

func TestRunRejectsUnusableInput(t *testing.T) {
	targets, fetch, _ := clusterFixture(t, [][]float64{{1}})
	if _, err := Run(context.Background(), nil,
		tsdb.Query{Agg: tsdb.AggAvg, Metric: "m", Last: time.Minute},
		time.Unix(0, 0), fetch, Options{}); err == nil {
		t.Fatal("empty target list accepted")
	}
	if _, err := Run(context.Background(), targets,
		tsdb.Query{Agg: tsdb.AggAvg, Metric: "m"},
		time.Unix(0, 0), fetch, Options{}); err == nil {
		t.Fatal("windowless query accepted")
	}
}

func TestSortTargetsDedups(t *testing.T) {
	in := []Target{{Node: "b", Addr: "2"}, {Node: "a", Addr: "1"}, {Node: "b", Addr: "2b"}}
	out := SortTargets(in)
	if len(out) != 2 || out[0].Node != "a" || out[1].Node != "b" {
		t.Fatalf("SortTargets = %+v", out)
	}
}

// loadDB holds 1000 one-second samples of a load-average-like series, and
// loadWindow selects 300 of them.
func loadDB() *tsdb.DB {
	db := tsdb.NewDB(tsdb.Options{})
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 1000; i++ {
		u := rng.Float64()
		db.Append("n/loadavg", int64(i)*int64(time.Second), 0.25+7.75*u*u)
	}
	return db
}

var loadWindow = tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 601 * int64(time.Second), To: 901 * int64(time.Second)}

// FuzzDecodePart feeds arbitrary bytes to the two decoders of a querypart
// exchange, which is what a peer can send: the part (DecodePart, the reply)
// and the query (tsdb.DecodeQuery, the request). Neither may panic;
// whatever either accepts re-encodes to the input byte for byte; a decoded
// percentile part has strictly ascending indices within the obs layout; a
// decoded query has a metric within its cap and a non-empty absolute
// window; and a claimed bucket count or metric length larger than the bytes
// that remain is refused. Seeded with real parts (an empty one, an
// arithmetic one, a 300-sample percentile), real queries, and a hostile
// claim of each kind.
func FuzzDecodePart(f *testing.F) {
	db := loadDB()
	pct, err := ComputePart(db, "n/loadavg", loadWindow)
	if err != nil || pct.Count != 300 {
		f.Fatalf("seed part %+v, %v", pct, err)
	}
	avg := loadWindow
	avg.Agg = tsdb.AggAvg
	arith, err := ComputePart(db, "n/loadavg", avg)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := ComputePart(db, "n/loadavg", tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 5e12, To: 6e12})
	if err != nil || empty.Count != 0 {
		f.Fatalf("seed part %+v, %v", empty, err)
	}
	for _, p := range []Part{empty, arith, pct} {
		f.Add(p.AppendBinary(nil))
	}
	f.Add(loadWindow.AppendBinary(nil))
	f.Add(tsdb.Query{Agg: tsdb.AggAvg, Metric: "freemem", From: -5, To: 60e9, Res: 10 * time.Second}.AppendBinary(nil))
	f.Add([]byte("\x02\x04\x00\x02\xe0\x0e\x00\x01\x01")) // 1 888 buckets claimed in 3 bytes
	f.Add([]byte("\x08\xe8\x07load"))                     // a 1 000-byte metric claimed in 4
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := DecodePart(b); err == nil {
			if again := p.AppendBinary(nil); !bytes.Equal(again, b) {
				t.Fatalf("part %+v decoded from %x re-encodes as %x", p, b, again)
			}
			for i, bc := range p.Buckets {
				if bc.Index < 0 || bc.Index >= obs.NumBuckets || i > 0 && bc.Index <= p.Buckets[i-1].Index {
					t.Fatalf("part %x decoded bucket %d at index %d: %v", b, i, bc.Index, p.Buckets)
				}
			}
		} else if n, rest, ok := claimedBuckets(b); ok && n > uint64(len(rest)/2) && !strings.Contains(err.Error(), "claims") {
			t.Fatalf("part %x claims %d buckets in %d bytes: refused for %v", b, n, len(rest), err)
		}
		if q, err := tsdb.DecodeQuery(b); err == nil {
			if again := q.AppendBinary(nil); !bytes.Equal(again, b) {
				t.Fatalf("query %+v decoded from %x re-encodes as %x", q, b, again)
			}
			if q.Metric == "" || len(q.Metric) > tsdb.MaxMetricBytes || q.From >= q.To || q.Last != 0 || q.Res < 0 {
				t.Fatalf("query %x decoded as %+v", b, q)
			}
		} else if len(b) > 1 {
			_, known := tsdb.ParseAgg(tsdb.Agg(b[0]).String())
			if n, rest, bad := tsdb.ReadUvarint(b[1:]); known && bad == nil && n > uint64(len(rest)) && !strings.Contains(err.Error(), "claims") {
				t.Fatalf("query %x claims a %d-byte metric in %d bytes: refused for %v", b, n, len(rest), err)
			}
		}
	})
}

// claimedBuckets reads the bucket count a percentile part's bytes claim,
// and the bytes after it, with the varint readers but not DecodePart.
func claimedBuckets(b []byte) (n uint64, rest []byte, ok bool) {
	var err error
	for field := 0; field < 3; field++ {
		if _, b, err = tsdb.ReadVarint(b); err != nil {
			return 0, nil, false
		}
	}
	if len(b) == 0 || b[0] != 2 {
		return 0, nil, false
	}
	n, rest, err = tsdb.ReadUvarint(b[1:])
	return n, rest, err == nil
}

// BenchmarkComputePart answers one node's part of a p99 over 300 samples of
// a load-average-like series: the scan, the bucketing and the sparse counts
// the part carries.
func BenchmarkComputePart(b *testing.B) {
	db, q := loadDB(), loadWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ComputePart(db, "n/loadavg", q)
		if err != nil || p.Count != 300 {
			b.Fatalf("part %+v, %v", p, err)
		}
	}
}

// BenchmarkPartCodec is one querypart reply's codec work on both ends: a
// 300-sample p99 part of a load-average-like series (129 buckets) encoded
// into a reused buffer and decoded back.
func BenchmarkPartCodec(b *testing.B) {
	p, err := ComputePart(loadDB(), "n/loadavg", loadWindow)
	if err != nil || p.Count != 300 {
		b.Fatalf("part %+v, %v", p, err)
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = p.AppendBinary(buf[:0])
		if _, err := DecodePart(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "B/part")
}

// sortedPart is ComputePart's percentile branch as it was before the part
// was counted: every sample's bucket index collected, sorted, and one pair
// per run. It is the oracle the counted part must equal.
func sortedPart(db *tsdb.DB, series string, q tsdb.Query) Part {
	p := Part{From: q.From, To: q.To}
	var idx []int
	db.Scan(series, q.From, q.To, func(pt tsdb.Point) {
		idx = append(idx, obs.BucketOf(tsdb.ScaleValue(pt.V)))
	})
	p.Count = int64(len(idx))
	if len(idx) == 0 {
		return p
	}
	slices.Sort(idx)
	for i, b := range idx {
		if i == 0 || b != idx[i-1] {
			p.Buckets = append(p.Buckets, BucketCount{Index: b})
		}
		p.Buckets[len(p.Buckets)-1].Count++
	}
	return p
}

// The counted percentile part equals the sort-based one, bucket for bucket
// and byte for byte on the wire, over FuzzDecodePart's seed windows and
// seeded windows at the edges: empty, one bucket, NaN and negative values
// (bucket 0), values clamped at maxScaled (the top bucket) and a wide
// random spread. Each window runs after the others on one pool, so a
// counter handed back dirty shows up in the next part.
func TestCountedPartMatchesSortedPart(t *testing.T) {
	db := loadDB()
	rng := rand.New(rand.NewSource(3))
	series := map[string][]float64{
		"one":     {2.5, 2.5, 2.5},
		"edges":   {math.NaN(), -1, -1e300, 0, math.Inf(-1), 1e-7},
		"clamped": {1e300, math.Inf(1), 1e13, 9.3e12, 5},
		"mixed":   {math.NaN(), 0.25, 1e300, -3, 7.75, 0.25, 1e13},
	}
	spread := make([]float64, 2000)
	for i := range spread {
		spread[i] = math.Exp(rng.Float64()*40 - 15) // ≈ 3e-7 … 2.4e10
	}
	series["spread"] = spread
	for name, vals := range series {
		for i, v := range vals {
			db.Append("n/"+name, int64(i+1)*int64(time.Second), v)
		}
	}
	type window struct {
		series string
		q      tsdb.Query
	}
	windows := []window{
		{"n/loadavg", loadWindow},
		{"n/loadavg", tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 5e12, To: 6e12}},
		{"n/loadavg", tsdb.Query{Agg: tsdb.AggP50, Metric: "loadavg", From: 1, To: 2e12}},
		{"n/missing", loadWindow},
	}
	for name, vals := range series {
		windows = append(windows, window{"n/" + name, tsdb.Query{Agg: tsdb.AggP99, Metric: name,
			From: 1, To: int64(len(vals)+1) * int64(time.Second)}})
	}
	for k := 0; k < 20; k++ {
		from := rng.Int63n(2000) * int64(time.Second)
		windows = append(windows, window{"n/spread", tsdb.Query{Agg: tsdb.AggP50, Metric: "spread",
			From: from, To: from + (1+rng.Int63n(500))*int64(time.Second)}})
	}
	for _, w := range windows {
		want := sortedPart(db, w.series, w.q)
		got, err := ComputePart(db, w.series, w.q)
		if err != nil {
			t.Fatalf("%s %v: %v", w.series, w.q, err)
		}
		if got.Count != want.Count || (got.Buckets == nil) != (want.Buckets == nil) ||
			!slices.Equal(got.Buckets, want.Buckets) || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("%s %v: counted part\n%+v\nsorted part\n%+v", w.series, w.q, got, want)
		}
	}
}

// percentileParts is four nodes' p99 parts over 300-sample windows of
// load-average-like series, about 100 buckets each.
func percentileParts(tb testing.TB) (tsdb.Query, []Part) {
	q := loadWindow
	parts := make([]Part, 4)
	for n := range parts {
		db := tsdb.NewDB(tsdb.Options{})
		rng := rand.New(rand.NewSource(int64(n + 1)))
		for i := 1; i <= 1000; i++ {
			u := rng.Float64()
			db.Append("n/loadavg", int64(i)*int64(time.Second), 0.25+float64(n+1)*7.75*u*u)
		}
		p, err := ComputePart(db, "n/loadavg", q)
		if err != nil || p.Count != 300 {
			tb.Fatalf("part %d: %+v, %v", n, p, err)
		}
		parts[n] = p
	}
	return q, parts
}

// The sparse merge answers every quantile exactly as adding the parts' full
// snapshots and walking all the buckets did.
func TestSparseMergeMatchesSnapshotMerge(t *testing.T) {
	q, parts := percentileParts(t)
	parts = append(parts, Part{From: q.From, To: q.To}) // an empty node
	res := Result{Query: q, Nodes: make([]NodeStatus, len(parts))}
	res.merge(parts)
	var want obs.Snapshot
	for _, p := range parts {
		for _, b := range p.Buckets {
			want.Buckets[b.Index] += b.Count
			want.Count += b.Count
		}
	}
	if res.Hist.Snapshot != want || res.Count != int64(want.Count) {
		t.Fatalf("merged histogram of %d samples differs from the snapshot sum of %d", res.Count, want.Count)
	}
	for _, quant := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		if got, w := res.Hist.Quantile(quant), tsdb.UnscaleValue(want.Quantile(quant)); got != w {
			t.Fatalf("q%g: sparse walk %g, full walk %g", quant, got, w)
		}
	}
}

// BenchmarkMergeParts merges four percentile parts of about 100 buckets
// each into the result histogram and reads its p99: one allocation, the
// histogram the Result hands out.
func BenchmarkMergeParts(b *testing.B) {
	q, parts := percentileParts(b)
	nodes := make([]NodeStatus, len(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Result{Query: q, Nodes: nodes}
		res.merge(parts)
		if !res.HasValue {
			b.Fatal("no value")
		}
	}
}

// fmtRender is Result.Render as it was written with fmt, kept as the
// oracle for the strconv renderer.
func fmtRender(r Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "agg %s\n", r.Query.Agg)
	if r.HasValue {
		fmt.Fprintf(&sb, "value %g\n", r.Value)
	} else {
		sb.WriteString("value none\n")
	}
	res := "raw"
	if r.Query.Res > 0 {
		res = r.Query.Res.String()
	}
	fmt.Fprintf(&sb, "samples %d\nfrom %.3f\nto %.3f\nresolution %s\n",
		r.Count, float64(r.Query.From)/1e9, float64(r.Query.To)/1e9, res)
	fmt.Fprintf(&sb, "nodes %d ok %d failed %d\npartial %t\n",
		len(r.Nodes), r.OK, r.Failed, r.Partial)
	for _, ns := range r.Nodes {
		if ns.OK() {
			fmt.Fprintf(&sb, "node %s ok samples=%d in=%s\n",
				renderName(ns.Node), ns.Count, ns.Elapsed.Round(time.Microsecond))
		} else {
			fmt.Fprintf(&sb, "node %s error %s\n", renderName(ns.Node), ns.Err)
		}
	}
	return sb.String()
}

// Result.Render appends with strconv; its bytes are fmt's, over seeded
// results with every value shape (NaN, ±Inf, tiny, huge, none), windows
// with sub-millisecond and negative ends, every aggregation and tier, and
// node lists with quoted names, failures and elapsed times of every scale.
func TestResultRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-9, 1e21, 123456.789, 1.0 / 3,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := []string{"node0", "alan", "two words", "line\nbreak", "tab\there", "\xff", "ünïcode", ""}
	aggs := []tsdb.Agg{tsdb.AggAvg, tsdb.AggMin, tsdb.AggMax, tsdb.AggSum, tsdb.AggCount,
		tsdb.AggRate, tsdb.AggP99, tsdb.Agg(99)}
	ress := []time.Duration{0, 10 * time.Second, time.Minute, 90 * time.Minute}
	for i := 0; i < 2000; i++ {
		r := Result{
			Query: tsdb.Query{
				Agg:  aggs[rng.Intn(len(aggs))],
				From: rng.Int63() - rng.Int63n(1<<40),
				To:   rng.Int63(),
				Res:  ress[rng.Intn(len(ress))],
			},
			HasValue: rng.Intn(4) != 0,
			Count:    rng.Int63n(1 << uint(rng.Intn(63))),
			Partial:  rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			r.Value = values[rng.Intn(len(values))]
		} else {
			r.Value = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		for n := rng.Intn(6); n > 0; n-- {
			ns := NodeStatus{Node: names[rng.Intn(len(names))],
				Elapsed: time.Duration(rng.Int63n(1 << uint(rng.Intn(40))))}
			if rng.Intn(3) == 0 {
				ns.Err = fmt.Sprintf("dial tcp 127.0.0.1:%d: connection refused", rng.Intn(65536))
				r.Failed++
			} else {
				ns.Count = rng.Int63n(1 << 20)
				r.OK++
			}
			r.Nodes = append(r.Nodes, ns)
		}
		if got, want := r.Render(), fmtRender(r); got != want {
			t.Fatalf("result %d: Render\n%q\nwant\n%q", i, got, want)
		}
	}
}
