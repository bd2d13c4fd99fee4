package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Agg enumerates the windowed aggregation functions.
type Agg int

// Aggregation functions.
const (
	AggMin Agg = iota
	AggMax
	AggAvg
	AggSum
	AggCount
	AggRate // (last - first) / elapsed seconds within the window
	AggP50  // approximate percentiles (exact below histApproxThreshold)
	AggP95
	AggP99
)

var aggNames = map[Agg]string{
	AggMin: "min", AggMax: "max", AggAvg: "avg", AggSum: "sum",
	AggCount: "count", AggRate: "rate", AggP50: "p50", AggP95: "p95", AggP99: "p99",
}

// String returns the query-grammar name of the aggregation.
func (a Agg) String() string {
	if s, ok := aggNames[a]; ok {
		return s
	}
	return fmt.Sprintf("agg(%d)", int(a))
}

// ParseAgg maps a query-grammar name to its Agg.
func ParseAgg(s string) (Agg, bool) {
	for a, name := range aggNames {
		if name == s {
			return a, true
		}
	}
	return 0, false
}

// Quantile returns the quantile an aggregation targets (0.50 for AggP50,
// …) and whether the aggregation is a percentile at all — percentiles need
// raw samples (or mergeable histograms) where every other Agg folds from
// summaries.
func (a Agg) Quantile() (float64, bool) {
	switch a {
	case AggP50:
		return 0.50, true
	case AggP95:
		return 0.95, true
	case AggP99:
		return 0.99, true
	}
	return 0, false
}

// Query is one windowed aggregate request. The window is either absolute
// ([From, To) in Unix nanoseconds) or relative (Last, anchored at the
// series' newest sample); with neither set the query covers the full
// retained range.
type Query struct {
	Agg    Agg
	Metric string // series name as written in the query text
	From   int64
	To     int64
	Last   time.Duration
	// Res selects a downsampling tier (e.g. 10s, 1m); zero queries raw
	// samples.
	Res time.Duration
}

// ParseQuery parses the control-file query grammar:
//
//	<agg> <metric> [from <t> to <t> | last <dur>] [@<res>]
//
// where <agg> is min|max|avg|sum|count|rate|p50|p95|p99, <t> is Unix
// seconds (fractions allowed) or RFC3339, <dur> and <res> are Go durations
// (e.g. 90s, 5m), and @raw explicitly selects raw samples. Examples:
//
//	avg loadavg last 60s
//	p95 netbw from 1056326400 to 1056330000
//	max freemem last 1h @60s
//
// Raw-resolution windows are half-open [from, to) over samples. Tier
// queries (@10s, @60s, …) aggregate whole buckets: the window is widened
// outward to bucket boundaries, any bucket overlapping it counts entirely,
// and the result reports the widened window.
func ParseQuery(text string) (Query, error) {
	fields := strings.Fields(text)
	var q Query
	// An optional trailing @<res> may appear anywhere after the metric;
	// strip it first.
	rest := fields[:0:0]
	for _, f := range fields {
		if strings.HasPrefix(f, "@") {
			if q.Res != 0 {
				return q, fmt.Errorf("tsdb: duplicate resolution in query")
			}
			if f == "@raw" {
				continue
			}
			d, err := time.ParseDuration(f[1:])
			if err != nil || d <= 0 {
				return q, fmt.Errorf("tsdb: bad resolution %q", f)
			}
			q.Res = d
			continue
		}
		rest = append(rest, f)
	}
	if len(rest) < 2 {
		return q, fmt.Errorf("tsdb: usage: <agg> <metric> [from <t> to <t> | last <dur>] [@<res>]")
	}
	agg, ok := ParseAgg(rest[0])
	if !ok {
		return q, fmt.Errorf("tsdb: unknown aggregation %q", rest[0])
	}
	q.Agg = agg
	q.Metric = rest[1]
	switch {
	case len(rest) == 2:
	case len(rest) == 4 && rest[2] == "last":
		d, err := time.ParseDuration(rest[3])
		if err != nil || d <= 0 {
			return q, fmt.Errorf("tsdb: bad duration %q", rest[3])
		}
		q.Last = d
	case len(rest) == 6 && rest[2] == "from" && rest[4] == "to":
		from, err := parseInstant(rest[3])
		if err != nil {
			return q, err
		}
		to, err := parseInstant(rest[5])
		if err != nil {
			return q, err
		}
		if from >= to {
			return q, fmt.Errorf("tsdb: empty window [%s, %s)", rest[3], rest[5])
		}
		q.From, q.To = from, to
	default:
		return q, fmt.Errorf("tsdb: bad window clause %q", strings.Join(rest[2:], " "))
	}
	return q, nil
}

// parseInstant accepts Unix seconds (fractions allowed), exact Unix
// nanoseconds with an "ns" suffix, or RFC3339. The ns form exists for
// machine-generated queries: float64 seconds cannot represent a
// current-epoch nanosecond exactly (~128 ns of rounding), which would break
// the distributed-query invariant that every node answers the identical
// window.
func parseInstant(s string) (int64, error) {
	if ns, ok := strings.CutSuffix(s, "ns"); ok {
		if v, err := strconv.ParseInt(ns, 10, 64); err == nil {
			return v, nil
		}
		return 0, fmt.Errorf("tsdb: bad instant %q (want integer nanoseconds before \"ns\")", s)
	}
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		return int64(secs * 1e9), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t.UnixNano(), nil
	}
	return 0, fmt.Errorf("tsdb: bad instant %q (want unix seconds, <int>ns or RFC3339)", s)
}

// String renders the query back in the grammar ParseQuery accepts, using
// the exact-nanosecond instant form for absolute windows so a re-parse on
// another node resolves the identical window. This is the wire form the
// scatter-gather coordinator sends to every leaf.
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

// WidenWindow widens [from, to) outward to whole buckets of the given
// resolution — the tier-query convention of DESIGN.md §7: tier buckets are
// indivisible, so a bucket straddling either edge counts entirely.
// Idempotent: widening an already-aligned window returns it unchanged,
// which is what lets a coordinator pre-widen once and every leaf re-widen
// harmlessly.
func WidenWindow(from, to int64, res time.Duration) (int64, int64) {
	interval := res.Nanoseconds()
	if interval <= 0 || from >= to {
		return from, to
	}
	return bucketStart(from, interval), bucketStart(to-1, interval) + interval
}

// Result is the outcome of one windowed aggregate query.
type Result struct {
	Agg      Agg
	From, To int64 // resolved window, Unix nanoseconds, half-open
	Count    int64 // raw samples (or tier bucket samples) aggregated
	Value    float64
	Res      time.Duration // 0 = raw
}

// Render formats the result as control-file text, one "key value" pair
// per line; timestamps are Unix seconds to three decimals.
func (r Result) Render() string {
	res := "raw"
	if r.Res > 0 {
		res = r.Res.String()
	}
	return fmt.Sprintf("agg %s\nvalue %g\nsamples %d\nfrom %.3f\nto %.3f\nresolution %s\n",
		r.Agg, r.Value, r.Count, float64(r.From)/1e9, float64(r.To)/1e9, res)
}

// ErrNoData classifies query failures that mean "this series simply has
// nothing to say about the window" — unknown series, empty series, no
// samples or buckets in range, too few samples for a rate. Scatter-gather
// callers match it with errors.Is and fold such nodes in as an empty
// contribution rather than a node failure.
var ErrNoData = errors.New("tsdb: no data in window")

// noDataError is an error carrying its own message that errors.Is-matches
// ErrNoData, so the existing human-readable messages stay byte-identical.
type noDataError string

func (e noDataError) Error() string      { return string(e) }
func (noDataError) Is(target error) bool { return target == ErrNoData }

// histApproxThreshold is the window size above which percentile queries
// switch from exact (collect and sort) to a two-pass fixed-bin histogram.
const histApproxThreshold = 8192

// histBins is the bucket count of the approximate percentile histogram.
const histBins = 512

// Query executes q against the series. The resolved absolute window is
// [Result.From, Result.To).
func (s *Series) Query(q Query) (Result, error) {
	from, to := q.From, q.To
	switch {
	case q.Last > 0:
		if s.count == 0 {
			return Result{}, noDataError("tsdb: series is empty")
		}
		to = s.last + 1
		from = to - q.Last.Nanoseconds()
	case from == 0 && to == 0:
		if s.count == 0 {
			return Result{}, noDataError("tsdb: series is empty")
		}
		from, to = s.firstT(), s.last+1
	}
	r := Result{Agg: q.Agg, From: from, To: to, Res: q.Res}
	if q.Res > 0 {
		return s.queryTier(q, r)
	}
	if quant, ok := q.Agg.Quantile(); ok {
		return s.queryQuantile(quant, r)
	}

	// Fold per-chunk summaries for fully-covered chunks; decode only the
	// chunks straddling a window edge. This is what keeps a windowed
	// aggregate over millions of samples in the microsecond range.
	var agg Summary
	for i := range s.nchunks() {
		c := s.chunk(i)
		if !c.overlaps(from, to) {
			continue
		}
		if c.summary.TMin >= from && c.summary.TMax < to {
			agg.fold(c.summary)
			continue
		}
		var part Summary
		it := c.iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p.T >= to {
				break
			}
			if p.T >= from {
				part.observe(p.T, p.V)
			}
		}
		if it.Err() != nil {
			return r, s.decodeError(c, it.Err())
		}
		agg.fold(part)
	}
	r.Count = int64(agg.Count)
	if agg.Count == 0 {
		return r, noDataError("tsdb: no samples in window")
	}
	switch q.Agg {
	case AggMin:
		r.Value = agg.Min
	case AggMax:
		r.Value = agg.Max
	case AggSum:
		r.Value = agg.Sum
	case AggCount:
		r.Value = float64(agg.Count)
	case AggAvg:
		r.Value = agg.Sum / float64(agg.Count)
	case AggRate:
		if agg.Count < 2 || agg.TMax == agg.TMin {
			return r, noDataError("tsdb: rate needs at least two samples in window")
		}
		r.Value = (agg.Last - agg.First) / (float64(agg.TMax-agg.TMin) / 1e9)
	default:
		return r, fmt.Errorf("tsdb: unsupported aggregation %s", q.Agg)
	}
	return r, nil
}

// queryQuantile computes approximate percentiles: exact collect-and-sort
// for small windows, a deterministic two-pass histogram for large ones.
func (s *Series) queryQuantile(quant float64, r Result) (Result, error) {
	var count int64
	var lo, hi float64
	first := true
	err := s.Scan(r.From, r.To, func(p Point) {
		count++
		if first || p.V < lo {
			lo = p.V
		}
		if first || p.V > hi {
			hi = p.V
		}
		first = false
	})
	r.Count = count
	if err != nil {
		return r, err
	}
	if count == 0 {
		return r, noDataError("tsdb: no samples in window")
	}
	if count <= histApproxThreshold {
		vals, err := s.appendValues(make([]float64, 0, count), r.From, r.To)
		if err != nil {
			return r, err
		}
		sort.Float64s(vals)
		idx := int(math.Ceil(quant*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		r.Value = vals[idx]
		return r, nil
	}
	if lo == hi {
		r.Value = lo
		return r, nil
	}
	var bins [histBins]int64
	width := (hi - lo) / histBins
	if err := s.Scan(r.From, r.To, func(p Point) {
		i := int((p.V - lo) / width)
		if i >= histBins {
			i = histBins - 1
		}
		bins[i]++
	}); err != nil {
		return r, err
	}
	rank := int64(math.Ceil(quant * float64(count)))
	var seen int64
	for i, n := range bins {
		seen += n
		if seen >= rank {
			r.Value = lo + width*(float64(i)+0.5)
			return r, nil
		}
	}
	r.Value = hi
	return r, nil
}

// queryTier answers from a downsampling tier. Tier buckets are indivisible
// (they retain no per-sample detail), so the window is widened outward to
// bucket boundaries and a bucket belongs to the query when its span
// [Start, Start+Res) overlaps [from, to) — both edges are treated
// symmetrically: a bucket straddling either edge is counted entirely. The
// resolved window reported in the Result is the widened one, so callers see
// exactly the range that was aggregated. Every aggregate is the raw one over
// that window's samples: a rate runs from the first sample of the first
// bucket to the last sample of the last, by their times.
func (s *Series) queryTier(q Query, r Result) (Result, error) {
	tr := s.tier(q.Res)
	if tr == nil {
		avail := make([]string, 0, len(s.tiers))
		for _, d := range s.TierIntervals() {
			avail = append(avail, d.String())
		}
		return r, fmt.Errorf("tsdb: no %s tier (have raw%s)", q.Res,
			strings.Join(append([]string{""}, avail...), ", "))
	}
	if _, ok := q.Agg.Quantile(); ok {
		return r, fmt.Errorf("tsdb: percentiles require raw resolution")
	}
	r.From, r.To = WidenWindow(r.From, r.To, q.Res)
	// agg folds the window's buckets into one: the first's First and
	// TFirst, the last's Last and TLast.
	var agg Bucket
	tr.each(r.From, r.To, func(b Bucket) {
		if agg.Count == 0 {
			agg = b
			return
		}
		agg.Count += b.Count
		agg.Sum += b.Sum
		agg.Last, agg.TLast = b.Last, b.TLast
		if b.Min < agg.Min {
			agg.Min = b.Min
		}
		if b.Max > agg.Max {
			agg.Max = b.Max
		}
	})
	r.Count = agg.Count
	if agg.Count == 0 {
		return r, noDataError("tsdb: no buckets in window")
	}
	switch q.Agg {
	case AggMin:
		r.Value = agg.Min
	case AggMax:
		r.Value = agg.Max
	case AggSum:
		r.Value = agg.Sum
	case AggCount:
		r.Value = float64(agg.Count)
	case AggAvg:
		r.Value = agg.Sum / float64(agg.Count)
	case AggRate:
		if agg.Count < 2 || agg.TLast == agg.TFirst {
			return r, noDataError("tsdb: rate needs at least two samples in window")
		}
		r.Value = (agg.Last - agg.First) / (float64(agg.TLast-agg.TFirst) / 1e9)
	default:
		return r, fmt.Errorf("tsdb: unsupported aggregation %s", q.Agg)
	}
	return r, nil
}
