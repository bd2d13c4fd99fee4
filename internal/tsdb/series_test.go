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

// naiveTier is the tier as first written — a slice of closed buckets,
// pushed on close and then cut from the front — kept as the reference the
// ring is checked against.
type naiveTier struct {
	interval, retention int64
	closed              []Bucket
	cur                 Bucket
	curSet              bool
}

func (nt *naiveTier) observe(t int64, v float64) {
	start := bucketStart(t, nt.interval)
	if nt.curSet && start == nt.cur.Start {
		nt.cur.observe(v)
		return
	}
	if nt.curSet {
		nt.closed = append(nt.closed, nt.cur)
	}
	nt.cur, nt.curSet = newBucket(start, v), true
	if nt.retention > 0 {
		i := 0
		for i < len(nt.closed) && nt.closed[i].Start+nt.interval <= t-nt.retention {
			i++
		}
		nt.closed = nt.closed[i:]
	}
}

func (nt *naiveTier) all() []Bucket {
	return append(append([]Bucket{}, nt.closed...), nt.cur)
}

// TestTierRingMatchesNaiveReference drives the ring and the reference with
// the same seeded schedules — steady appends, gaps within and far beyond the
// retention, retentions shorter than a bucket and not a multiple of it —
// and compares the full bucket list along the way, across many wrap-arounds.
func TestTierRingMatchesNaiveReference(t *testing.T) {
	retentions := []time.Duration{0, 3 * time.Second, 10 * time.Second, 95 * time.Second, 10 * time.Minute}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := TierSpec{Interval: 10 * time.Second, Retention: retentions[rng.Intn(len(retentions))]}
		s := NewSeries(Options{Tiers: []TierSpec{spec}})
		ref := &naiveTier{interval: spec.Interval.Nanoseconds(), retention: spec.Retention.Nanoseconds()}
		ts := int64(rng.Intn(100)) * sec
		for i := 0; i < 5000; i++ {
			switch r := rng.Intn(100); {
			case r < 90:
				ts += int64(1+rng.Intn(4)) * sec
			case r < 98:
				ts += int64(rng.Intn(120)) * sec // skips buckets
			default:
				ts += int64(rng.Intn(3000)) * sec // may outrun the whole retention
			}
			v := float64(rng.Intn(100))
			if s.Append(ts, v) { // a zero gap repeats a timestamp: rejected
				ref.observe(ts, v)
			}
			if i%37 == 0 || i == 4999 {
				got, want := s.Buckets(spec.Interval), ref.all()
				if len(got) != len(want) {
					t.Fatalf("seed %d (retention %s) append %d: %d buckets, reference has %d", seed, spec.Retention, i, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("seed %d (retention %s) append %d: bucket %d = %+v, reference %+v", seed, spec.Retention, i, k, got[k], want[k])
					}
				}
			}
		}
		if tr := s.tiers[0]; tr.retention > 0 && len(tr.ring) > int(tr.retention/tr.interval)+2 {
			t.Fatalf("seed %d: ring grew to %d slots for retention %s", seed, len(tr.ring), spec.Retention)
		}
	}
}

// TestFullTierClosesBucketsInPlace: once a tier holds a full retention of
// buckets, closing one more neither allocates nor moves the others — it
// takes the slot of the bucket it evicts.
func TestFullTierClosesBucketsInPlace(t *testing.T) {
	tr := &tier{interval: 10 * sec, retention: 900 * 6 * sec} // the default 10s tier at 15 min raw retention
	ts := int64(0)
	closeBucket := func() {
		ts += tr.interval
		tr.observe(ts, 1)
	}
	for i := 0; i < 2000; i++ {
		closeBucket()
	}
	if want := int(tr.retention/tr.interval) + 2; len(tr.ring) != want || tr.n < want-2 {
		t.Fatalf("full tier: %d slots holding %d buckets, want %d slots", len(tr.ring), tr.n, want)
	}
	// One close: the oldest bucket goes, and the second-oldest is now the
	// oldest without having moved.
	second := (tr.head + 1) % len(tr.ring)
	slot, kept := &tr.ring[second], tr.ring[second]
	closeBucket()
	if &tr.ring[tr.head] != slot || tr.ring[tr.head] != kept {
		t.Fatalf("closing a bucket moved the survivors: oldest is %+v, want %+v in place", tr.ring[tr.head], kept)
	}
	ring := &tr.ring[0]
	if allocs := testing.AllocsPerRun(1000, closeBucket); allocs != 0 {
		t.Fatalf("closing a bucket on a full tier allocates %.1f times", allocs)
	}
	if &tr.ring[0] != ring {
		t.Fatal("the ring was reallocated")
	}
	all := tr.all()
	if len(all) != tr.n+1 || all[len(all)-1].Start != ts {
		t.Fatalf("after wrap-around: %d buckets, newest starts at %ds, want %ds", len(all), all[len(all)-1].Start/sec, ts/sec)
	}
	for k := 1; k < len(all); k++ {
		if all[k].Start != all[k-1].Start+tr.interval {
			t.Fatalf("after wrap-around: bucket %d starts at %ds after %ds", k, all[k].Start/sec, all[k-1].Start/sec)
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
