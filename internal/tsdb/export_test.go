package tsdb

import "dproc/internal/obs"

// CorruptChunk cuts the i-th sealed chunk of the named series to half its
// bytes, in memory, so that decoding it runs out of stream partway — a torn
// or rotted chunk, for the tests outside the package — and returns the
// chunk's summary, which still promises every sample.
func CorruptChunk(db *DB, name string, i int) Summary {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.series[name].sealed[i]
	c.w.buf = c.w.buf[:len(c.w.buf)/2]
	return c.summary
}

// BucketBound is the percentile rule applied to one exact order statistic:
// the upper bound, in the metric's unit, of the obs bucket that v counts in.
// A percentile query answers BucketBound of the order statistic at rank
// ⌈q·n⌉.
func BucketBound(v float64) float64 {
	return UnscaleValue(obs.BucketUpper(obs.BucketOf(ScaleValue(v))))
}
