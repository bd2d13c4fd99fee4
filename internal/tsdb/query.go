package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	AggP50  // percentiles: the upper bound of the obs bucket holding the rank (see Hist)
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

// MaxMetricBytes caps a metric name in a query's binary form, and so
// MaxQueryBytes caps the whole: an agg byte, the name's length and bytes,
// and three varints.
const (
	MaxMetricBytes = 1024
	MaxQueryBytes  = 1 + 2 + MaxMetricBytes + 3*binary.MaxVarintLen64
)

// AppendBinary appends the binary form of an absolute query — the body of
// a querypart request (DESIGN §12): the agg byte, the metric's length as a
// uvarint and its bytes, then From and To as varints and Res in
// nanoseconds as a uvarint. There is no relative window in the form: Last
// is not written, so a leaf cannot re-anchor a window.
func (q Query) AppendBinary(b []byte) []byte {
	b = append(b, byte(q.Agg))
	b = binary.AppendUvarint(b, uint64(len(q.Metric)))
	b = append(b, q.Metric...)
	b = binary.AppendVarint(b, q.From)
	b = binary.AppendVarint(b, q.To)
	return binary.AppendUvarint(b, uint64(q.Res))
}

// DecodeQuery reads AppendBinary's form. It refuses an unknown agg, a
// metric that is empty, over MaxMetricBytes or longer than the bytes that
// remain, an empty window, a negative resolution, overlong varints and
// trailing bytes, so every query it returns re-encodes to exactly b.
func DecodeQuery(b []byte) (Query, error) {
	var q Query
	if len(b) == 0 {
		return q, errors.New("tsdb: empty binary query")
	}
	q.Agg = Agg(b[0])
	if _, ok := aggNames[q.Agg]; !ok {
		return q, fmt.Errorf("tsdb: binary query has unknown aggregation %d", b[0])
	}
	b = b[1:]
	n, b, err := ReadUvarint(b)
	if err != nil {
		return q, err
	}
	if n == 0 || n > MaxMetricBytes || n > uint64(len(b)) {
		return q, fmt.Errorf("tsdb: binary query claims a %d-byte metric in %d bytes (cap %d)", n, len(b), MaxMetricBytes)
	}
	q.Metric, b = string(b[:n]), b[n:]
	if q.From, b, err = ReadVarint(b); err != nil {
		return q, err
	}
	if q.To, b, err = ReadVarint(b); err != nil {
		return q, err
	}
	res, b, err := ReadUvarint(b)
	if err != nil {
		return q, err
	}
	q.Res = time.Duration(res)
	switch {
	case q.Res < 0:
		return q, fmt.Errorf("tsdb: binary query has a negative resolution")
	case len(b) > 0:
		return q, fmt.Errorf("tsdb: binary query has %d trailing bytes", len(b))
	case q.From >= q.To:
		return q, fmt.Errorf("tsdb: binary query window [%d, %d) is empty", q.From, q.To)
	}
	return q, nil
}

// ReadUvarint reads one canonical uvarint off the front of b and returns the
// rest: a truncated, overflowing or overlong one (a longer form than
// binary.AppendUvarint writes) is an error, so a decoder built on it
// re-encodes what it accepts byte for byte.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, b, errBadVarint
	}
	return v, b[n:], nil
}

var errBadVarint = errors.New("tsdb: truncated, overflowing or overlong varint")

// ReadVarint is ReadUvarint for a zig-zag signed varint (binary.AppendVarint).
func ReadVarint(b []byte) (int64, []byte, error) {
	ux, rest, err := ReadUvarint(b)
	return int64(ux>>1) ^ -int64(ux&1), rest, err
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

// Query executes q against the series. The resolved absolute window is
// [Result.From, Result.To).
func (s *Series) Query(q Query) (Result, error) {
	if _, ok := q.Agg.Quantile(); ok && q.Res == 0 {
		r, sc, err := s.values(q)
		return sc.count(r, err, nil)
	}
	r, err := s.window(q)
	if err != nil {
		return r, err
	}
	if q.Res > 0 {
		return s.queryTier(q, r)
	}

	// Fold per-chunk summaries for fully-covered chunks; decode only the
	// chunks straddling a window edge. This is what keeps a windowed
	// aggregate over millions of samples in the microsecond range.
	var agg Summary
	for i := range s.nchunks() {
		c := s.chunk(i)
		if !c.overlaps(r.From, r.To) {
			continue
		}
		if c.summary.TMin >= r.From && c.summary.TMax < r.To {
			agg.fold(c.summary)
			continue
		}
		var part Summary
		it := c.iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p.T >= r.To {
				break
			}
			if p.T >= r.From {
				part.observe(p.T, p.V)
			}
		}
		if it.Err() != nil {
			return r, s.decodeError(c, it.Err())
		}
		agg.fold(part)
	}
	if agg.Count == 0 {
		return r, noDataError("tsdb: no samples in window")
	}
	return r.aggregate(agg)
}

// window resolves q's window on the series: [From, To) as given, the Last
// duration up to and including the newest sample, or with neither the full
// retained range.
func (s *Series) window(q Query) (Result, error) {
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
	return Result{Agg: q.Agg, From: from, To: to, Res: q.Res}, nil
}

// aggregate ends every arithmetic query, raw or tier: the window's samples
// folded into one non-empty Summary give the aggregation's value.
func (r Result) aggregate(agg Summary) (Result, error) {
	r.Count = int64(agg.Count)
	switch r.Agg {
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
		return r, fmt.Errorf("tsdb: unsupported aggregation %s", r.Agg)
	}
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
	var agg Summary
	tr.each(r.From, r.To, func(b Bucket) { agg.fold(b.summary()) })
	if agg.Count == 0 {
		return r, noDataError("tsdb: no buckets in window")
	}
	return r.aggregate(agg)
}
