package tsdb

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

func TestScaleValueEdgeCases(t *testing.T) {
	if ScaleValue(-5) != 0 || ScaleValue(math.NaN()) != 0 {
		t.Fatal("negatives/NaN must clamp to zero")
	}
	if ScaleValue(1e300) != maxScaled {
		t.Fatal("huge values must saturate, not overflow")
	}
	if got := UnscaleValue(ScaleValue(3.5)); math.Abs(got-3.5) > 1e-6 {
		t.Fatalf("unscale(scale(3.5)) = %g", got)
	}
}

// BenchmarkNodePercentile is a node's own p99 (DB.Query, what `query
// <node>` runs) over a window of 3 600 samples — one hour at 1 Hz — and of
// 100 000: the decode under the read lock, then the count and the read.
func BenchmarkNodePercentile(b *testing.B) {
	for _, n := range []int{3600, 100000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			db := NewDB(Options{})
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				u := rng.Float64()
				db.Append("n/loadavg", int64(i+1)*int64(time.Second), 0.25+7.75*u*u)
			}
			q := Query{Agg: AggP99, From: 1, To: int64(n+1) * int64(time.Second)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, err := db.Query("n/loadavg", q); err != nil || r.Count != int64(n) {
					b.Fatalf("p99 %+v, %v", r, err)
				}
			}
		})
	}
}
