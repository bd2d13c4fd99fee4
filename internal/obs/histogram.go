// Lock-free streaming histograms. Values land in log-spaced buckets — 32
// sub-buckets per power of two, giving a worst-case relative quantile error
// of 1/32 (~3.1%) — via plain atomic adds, so concurrent writers on the
// data plane never contend on a lock and Record never allocates. Snapshots
// are mergeable across histograms with the same layout, which is what lets
// per-node distributions aggregate cluster-wide.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits sets the resolution: 2^subBits sub-buckets per octave.
	subBits  = 5
	subCount = 1 << subBits
	// nBuckets covers [0, 2^63): the first subCount buckets are exact
	// (width 1), then subCount buckets per octave above that.
	nBuckets = (64 - subBits) * subCount
)

// bucketIndex maps a non-negative value to its bucket. Values below
// subCount get exact unit buckets; above that, the top subBits+1 bits of
// the value select the octave and sub-bucket, so the mapping is continuous
// at the boundary and monotonic throughout.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (subBits + 1)
	m := int(uint64(v) >> uint(shift)) // in [subCount, 2*subCount)
	return shift*subCount + m
}

// bucketHigh returns the largest value that lands in bucket i — the value
// quantiles report, so estimates always bound the true quantile from above
// within one sub-bucket's width.
func bucketHigh(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	m := int64(i - shift*subCount)
	return (m+1)<<uint(shift) - 1
}

// NumBuckets is the fixed bucket count shared by every Histogram and
// Snapshot. Exported so external encodings (the admin protocol's sparse
// bucket lists) can bounds-check indices against the layout.
const NumBuckets = nBuckets

// BucketOf returns the bucket index a value lands in, clamping negatives
// to zero exactly as Record does. It is the leaf half of the distributed
// percentile merge: every node buckets its raw samples with this mapping,
// and the identical fixed layout is what makes the sparse bucket counts
// mergeable by element-wise addition.
func BucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bucketIndex(v)
}

// Histogram is a lock-free log-bucketed distribution. The zero value is
// ready to use; all methods are safe for concurrent use. Negative values
// are clamped to zero (durations can go slightly negative under clock
// adjustment; they mean "immeasurably small", not "invalid").
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [nBuckets]atomic.Uint64
}

// Record adds one value. It performs three atomic adds and no allocation —
// cheap enough for every event on the hot path, sampled or not.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns how many values have been recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// recorded values, within ~3.1% relative error; 0 when empty. Safe against
// concurrent writers: counts only grow, so the walk terminates at or before
// the bucket a frozen snapshot would have chosen.
func (h *Histogram) Quantile(q float64) int64 {
	return quantileWalk(q, h.count.Load(), 0, nBuckets-1, func(i int) uint64 { return h.buckets[i].Load() })
}

// quantileWalk finds the bucket holding the rank-th value, walking buckets
// lo through hi, and reports its upper bound.
func quantileWalk(q float64, total uint64, lo, hi int, bucket func(int) uint64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := lo; i <= hi; i++ {
		if seen += bucket(i); seen >= rank {
			return bucketHigh(i)
		}
	}
	return bucketHigh(nBuckets - 1)
}

// Snapshot is a point-in-time copy of a histogram, safe to merge and query
// offline. Count is derived from the bucket sums so the snapshot is always
// self-consistent even when taken under concurrent writers.
type Snapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [nBuckets]uint64
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	return s
}

// Merge folds other into s. Histograms share one fixed layout, so merging
// is element-wise addition — the property that lets per-node distributions
// aggregate into cluster-wide ones without raw samples.
func (s *Snapshot) Merge(other Snapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Quantile is Histogram.Quantile over the frozen snapshot.
func (s *Snapshot) Quantile(q float64) int64 {
	return quantileWalk(q, s.Count, 0, nBuckets-1, func(i int) uint64 { return s.Buckets[i] })
}

// QuantileWithin is Quantile for a snapshot whose non-empty buckets all lie
// in [lo, hi] (0 <= lo, hi < NumBuckets): the same answer from a walk of
// that range only. A merge that knows which buckets it added to reads its
// quantiles this way.
func (s *Snapshot) QuantileWithin(q float64, lo, hi int) int64 {
	return quantileWalk(q, s.Count, lo, hi, func(i int) uint64 { return s.Buckets[i] })
}
