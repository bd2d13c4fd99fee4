package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const sec = int64(time.Second)

// fill appends n samples at 1 Hz starting at t0, value = index.
func fill(s *Series, t0 int64, n int) {
	for i := 0; i < n; i++ {
		s.Append(t0+int64(i)*sec, float64(i))
	}
}

func TestSeriesSealsAtChunkSize(t *testing.T) {
	s := NewSeries(Options{ChunkSize: 16})
	fill(s, 0, 100)
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	if len(s.sealed) != 100/16 {
		t.Fatalf("sealed chunks = %d, want %d", len(s.sealed), 100/16)
	}
	for _, c := range s.sealed {
		if c.Summary().Count != 16 {
			t.Fatalf("sealed chunk holds %d samples, want 16", c.Summary().Count)
		}
	}
}

func TestSeriesRejectsNonIncreasingTimestamps(t *testing.T) {
	s := NewSeries(Options{})
	if !s.Append(10*sec, 1) || !s.Append(11*sec, 2) {
		t.Fatal("in-order appends rejected")
	}
	if s.Append(11*sec, 3) || s.Append(5*sec, 4) {
		t.Fatal("duplicate/out-of-order append accepted")
	}
	if s.Dropped() != 2 || s.Count() != 2 {
		t.Fatalf("dropped = %d count = %d", s.Dropped(), s.Count())
	}
}

func TestSeriesTail(t *testing.T) {
	s := NewSeries(Options{ChunkSize: 8})
	fill(s, 0, 30)
	tail := s.Tail(5)
	if len(tail) != 5 {
		t.Fatalf("tail length = %d", len(tail))
	}
	for i, p := range tail {
		if want := float64(25 + i); p.V != want {
			t.Fatalf("tail[%d] = %g, want %g (oldest first)", i, p.V, want)
		}
	}
	if got := s.Tail(0); len(got) != 30 {
		t.Fatalf("Tail(0) returned %d samples, want all 30", len(got))
	}
	if got := s.Tail(1000); len(got) != 30 {
		t.Fatalf("Tail(1000) returned %d samples, want 30", len(got))
	}
}

func TestSeriesRetentionEvictsSealedChunks(t *testing.T) {
	s := NewSeries(Options{ChunkSize: 10, Retention: 30 * time.Second})
	fill(s, 0, 100) // newest sample at t=99s; cutoff at 69s
	if s.Count() >= 100 {
		t.Fatal("no eviction happened")
	}
	pts := s.Tail(0)
	if int(pts[0].T/sec) < 60 {
		t.Fatalf("oldest retained sample at %ds, want >= 60s (whole-chunk eviction)", pts[0].T/sec)
	}
	// The newest samples are always retained.
	if last := pts[len(pts)-1]; last.T != 99*sec || last.V != 99 {
		t.Fatalf("newest sample = %+v", last)
	}
	// Count must agree with what Tail sees.
	if len(pts) != s.Count() {
		t.Fatalf("Tail(0) = %d points, Count = %d", len(pts), s.Count())
	}
}

// TestSeriesSteadyStateGarbage pins what a sealed chunk costs once retention
// is evicting: the Chunk and its buffer, sized from its predecessor — no
// append-doubling of the head, no fresh sealed slice per eviction — and a
// buffer that fits what it holds.
func TestSeriesSteadyStateGarbage(t *testing.T) {
	const chunk = DefaultChunkSize
	s := NewSeries(Options{Retention: 4 * chunk * time.Second})
	rng := rand.New(rand.NewSource(1))
	next := int64(0)
	appendChunk := func() {
		for i := 0; i < chunk; i++ {
			// A load average hovering around 2: a stationary signal, so
			// successive chunks compress to within a few percent.
			s.Append(next*sec, 2+float64(rng.Intn(17)-8)/8)
			next++
		}
	}
	for i := 0; i < 16; i++ {
		appendChunk()
	}
	if got := testing.AllocsPerRun(32, appendChunk); got > 2 {
		t.Fatalf("%.1f allocations per sealed chunk in steady state, want <= 2 (Chunk + buffer)", got)
	}
	if len(s.sealed) == 0 || len(s.sealed) > 5 {
		t.Fatalf("%d sealed chunks retained, want 1..5", len(s.sealed))
	}
	for i, c := range s.sealed {
		if n, m := len(c.w.buf), cap(c.w.buf); (m-n)*8 > m {
			t.Fatalf("sealed chunk %d: len %d cap %d, more than 1/8 slack", i, n, m)
		}
	}
}

func TestSeriesDownsamplingTiers(t *testing.T) {
	s := NewSeries(Options{Tiers: []TierSpec{{Interval: 10 * time.Second}}})
	// 25 samples at 1 Hz: buckets [0,10) [10,20) [20,30) with the last
	// still open.
	fill(s, 0, 25)
	buckets := s.Buckets(10 * time.Second)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	b0 := buckets[0]
	if b0.Start != 0 || b0.Count != 10 || b0.Min != 0 || b0.Max != 9 || b0.Sum != 45 || b0.First != 0 || b0.Last != 9 {
		t.Fatalf("bucket[0] = %+v", b0)
	}
	b2 := buckets[2]
	if b2.Start != 20*sec || b2.Count != 5 || b2.First != 20 || b2.Last != 24 {
		t.Fatalf("open bucket = %+v", b2)
	}
	if s.Buckets(time.Minute) != nil {
		t.Fatal("unknown tier returned buckets")
	}
}

func TestTierRetention(t *testing.T) {
	s := NewSeries(Options{Tiers: []TierSpec{{Interval: 10 * time.Second, Retention: 30 * time.Second}}})
	fill(s, 0, 120)
	for _, b := range s.Buckets(10 * time.Second) {
		if b.Start+10*sec <= 119*sec-30*sec {
			t.Fatalf("bucket starting at %ds survived the 30s retention", b.Start/sec)
		}
	}
}

func TestDefaultTiersScaleWithRetention(t *testing.T) {
	tiers := DefaultTiers(time.Hour)
	if len(tiers) != 2 || tiers[0].Interval != 10*time.Second || tiers[1].Interval != time.Minute {
		t.Fatalf("tiers = %+v", tiers)
	}
	if tiers[0].Retention != 6*time.Hour || tiers[1].Retention != 24*time.Hour {
		t.Fatalf("tier retentions = %+v", tiers)
	}
	for _, tier := range DefaultTiers(0) {
		if tier.Retention != 0 {
			t.Fatalf("unbounded raw retention must give unbounded tiers, got %+v", tier)
		}
	}
}

// Property: after appending N >> capacity samples, the retained history is
// the newest samples oldest-first, strictly increasing, no duplicates.
func TestQuickSeriesWraparound(t *testing.T) {
	f := func(extra uint16, seed int64) bool {
		s := NewSeries(Options{ChunkSize: 32, Retention: 100 * time.Second})
		n := 500 + int(extra)%2000
		for i := 0; i < n; i++ {
			s.Append(int64(i)*sec, float64(i)+float64(seed%7))
		}
		pts := s.Tail(0)
		if len(pts) != s.Count() || len(pts) == 0 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].T <= pts[i-1].T {
				return false // duplicate or out of order
			}
		}
		return pts[len(pts)-1].T == int64(n-1)*sec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB(Options{})
	db.Append("a/loadavg", 1*sec, 1)
	db.Append("a/loadavg", 2*sec, 2)
	db.Append("b/loadavg", 1*sec, 9)
	if names := db.Names(); len(names) != 2 || names[0] != "a/loadavg" {
		t.Fatalf("names = %v", names)
	}
	if tail := db.Tail("a/loadavg", 0); len(tail) != 2 || tail[1].V != 2 {
		t.Fatalf("tail = %v", tail)
	}
	if db.Tail("ghost", 0) != nil {
		t.Fatal("unknown series returned data")
	}
	st := db.Stats()
	if st.Series != 2 || st.Samples != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	db.DropPrefix("a/")
	if names := db.Names(); len(names) != 1 || names[0] != "b/loadavg" {
		t.Fatalf("names after drop = %v", names)
	}
	if _, err := db.Query("a/loadavg", Query{Agg: AggAvg}); err == nil {
		t.Fatal("query on dropped series succeeded")
	}
}

func TestSeriesBytesAccountsEviction(t *testing.T) {
	unbounded := NewSeries(Options{ChunkSize: 10})
	bounded := NewSeries(Options{ChunkSize: 10, Retention: 20 * time.Second})
	fill(unbounded, 0, 1000)
	fill(bounded, 0, 1000)
	if bounded.Bytes() >= unbounded.Bytes() {
		t.Fatalf("eviction did not shrink footprint: %d >= %d", bounded.Bytes(), unbounded.Bytes())
	}
	if math.Abs(float64(bounded.Count())-30) > 10 {
		t.Fatalf("bounded retained %d samples, want ~30", bounded.Count())
	}
}
