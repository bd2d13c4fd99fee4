package tsdb

import (
	"math"
	"sync"

	"dproc/internal/obs"
)

// ValueScale converts float metric values to the integer domain of the obs
// buckets: a value counts as round(v·ValueScale), and a quantile unscales
// on the way out. 1e6 keeps six fractional digits — far below the
// buckets' own ~3.1% relative error for any value ≥ 1e-3 — while leaving
// headroom to ~9.2e12 before int64 saturation clamps (byte counts and bit
// rates stay well under that).
const ValueScale = 1e6

// maxScaled caps scaled values below int64 overflow.
const maxScaled = int64(1) << 62

// ScaleValue maps a sample value into the bucket domain. NaN and negative
// values map to zero (the buckets cannot represent them; dproc metrics are
// non-negative by construction).
func ScaleValue(v float64) int64 {
	s := math.Round(v * ValueScale)
	if !(s > 0) { // also catches NaN
		return 0
	}
	if s >= float64(maxScaled) {
		return maxScaled
	}
	return int64(s)
}

// UnscaleValue maps a bucket-domain value back to the metric's unit.
func UnscaleValue(v int64) float64 { return float64(v) / ValueScale }

// Hist is a window's values counted into the fixed obs log-bucket layout:
// the one percentile engine. A node's own percentile query counts its window
// into one and reads it; a cluster query's parts carry the non-empty buckets
// of one each, and the coordinator adds them into one and reads that the
// same way. Every non-empty bucket lies in [Lo, Hi] while Count > 0.
type Hist struct {
	obs.Snapshot
	Lo, Hi int
}

// CountValues counts each value in the bucket of ScaleValue(v).
func (h *Hist) CountValues(vals []float64) {
	lo, hi := obs.NumBuckets, -1
	if h.Count > 0 {
		lo, hi = h.Lo, h.Hi
	}
	for _, v := range vals {
		i := obs.BucketOf(ScaleValue(v))
		h.Buckets[i]++
		lo, hi = min(lo, i), max(hi, i)
	}
	h.Lo, h.Hi = lo, hi
	h.Count += uint64(len(vals))
}

// Add counts n more values in bucket i (0 <= i < obs.NumBuckets): how a
// merge adds a part's buckets.
func (h *Hist) Add(i int, n uint64) {
	if h.Count == 0 {
		h.Lo, h.Hi = i, i
	}
	h.Lo, h.Hi = min(h.Lo, i), max(h.Hi, i)
	h.Buckets[i] += n
	h.Count += n
}

// Quantile reads the q-quantile of the counted values in the metric's unit:
// the upper bound of the bucket holding rank ⌈q·n⌉, which is at most one
// bucket width (≤ 3.1%) above that exact order statistic. 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	return UnscaleValue(h.QuantileWithin(q, h.Lo, h.Hi))
}

// histScratch is a percentile's reusable state: the window's decoded values
// and their counts, which go back to the pool empty.
type histScratch struct {
	vals []float64
	hist Hist
}

// maxPooledValues bounds the value buffer a scratch keeps, so one query
// over a long window does not pin its buffer in the pool.
const maxPooledValues = 1 << 16

var histPool = sync.Pool{New: func() any { return new(histScratch) }}

// values resolves q's window on the series and decodes its raw values into
// a pooled scratch.
func (s *Series) values(q Query) (Result, *histScratch, error) {
	sc := histPool.Get().(*histScratch)
	r, err := s.window(q)
	if err == nil {
		sc.vals, err = s.appendValues(sc.vals[:0], r.From, r.To)
		r.Count = int64(len(sc.vals))
	}
	return r, sc, err
}

// count ends a percentile query: unless err is set or the window is empty,
// it counts the values, reads the query's quantile and lends the counts to
// read (if not nil). Then the scratch goes back to the pool.
func (sc *histScratch) count(r Result, err error, read func(*Hist)) (Result, error) {
	if err == nil && r.Count == 0 {
		err = noDataError("tsdb: no samples in window")
	}
	if err == nil {
		h := &sc.hist
		h.CountValues(sc.vals)
		quant, _ := r.Agg.Quantile()
		r.Value = h.Quantile(quant)
		if read != nil {
			read(h)
		}
		clear(h.Buckets[h.Lo : h.Hi+1])
		h.Count = 0
	}
	if cap(sc.vals) > maxPooledValues {
		sc.vals = nil
	}
	histPool.Put(sc)
	return r, err
}

// CountWindow answers the percentile query q over the named series as Query
// does, and lends the window's counts to read (if not nil) for the call's
// duration. The values are decoded under the read lock and counted after it
// is released, so appends wait on the decode only. An unknown series or an
// empty window is ErrNoData, a chunk that fails to decode an error, and
// neither calls read.
func (db *DB) CountWindow(name string, q Query, read func(*Hist)) (Result, error) {
	db.mu.RLock()
	s, ok := db.series[name]
	if !ok {
		db.mu.RUnlock()
		return Result{}, errNoSeries(name)
	}
	r, sc, err := s.values(q)
	db.mu.RUnlock()
	return sc.count(r, err, read)
}
