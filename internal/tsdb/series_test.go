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
// bucket chunks are checked against.
type naiveTier struct {
	interval, retention int64
	closed              []Bucket
	cur                 Bucket
	curSet              bool
}

func (nt *naiveTier) observe(t int64, v float64) {
	start := bucketStart(t, nt.interval)
	if nt.curSet && start == nt.cur.Start {
		nt.cur.observe(t, v)
		return
	}
	if nt.curSet {
		nt.closed = append(nt.closed, nt.cur)
	}
	nt.cur, nt.curSet = newBucket(start, t, v), true
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

// sameBucket compares two buckets field by field, floats by their bits, so
// NaN payloads and −0 count.
func sameBucket(a, b Bucket) bool {
	f := math.Float64bits
	return a.Start == b.Start && a.Count == b.Count && a.TFirst == b.TFirst && a.TLast == b.TLast &&
		f(a.First) == f(b.First) && f(a.Last) == f(b.Last) && f(a.Min) == f(b.Min) &&
		f(a.Max) == f(b.Max) && f(a.Sum) == f(b.Sum)
}

// chunks counts the bucket chunks a tier holds.
func (tr *tier) chunks() int {
	if tr.open.n > 0 {
		return len(tr.sealed) + 1
	}
	return len(tr.sealed)
}

// TestTierRingMatchesNaiveReference drives the tier and the reference with
// the same seeded schedules — steady appends, gaps within and far beyond the
// retention, retentions shorter than a bucket and not a multiple of it —
// and compares the full bucket list along the way, across many chunk seals
// and evictions, and the chunk count against what the retention can need.
// Seeds 21–25 mix in NaN, ±Inf and −0; seeds 26–30 run a 1 ms tier from
// negative time across zero with gaps of 2³² buckets and more.
func TestTierRingMatchesNaiveReference(t *testing.T) {
	retentions := []time.Duration{0, 3 * time.Second, 10 * time.Second, 95 * time.Second, 10 * time.Minute}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for seed := int64(1); seed <= 30; seed++ {
		special, far := seed > 20 && seed <= 25, seed > 25
		rng := rand.New(rand.NewSource(seed))
		// The schedule is drawn in units of a tenth of the interval.
		interval, unit := 10*time.Second, sec
		if far {
			interval, unit = time.Millisecond, int64(100*time.Microsecond)
		}
		spec := TierSpec{Interval: interval, Retention: retentions[rng.Intn(len(retentions))] / time.Second * time.Duration(unit)}
		s := NewSeries(Options{Tiers: []TierSpec{spec}})
		tr := s.tiers[0]
		ref := &naiveTier{interval: spec.Interval.Nanoseconds(), retention: spec.Retention.Nanoseconds()}
		maxChunks := (int(tr.retention/tr.interval)+2+bucketsPerChunk-1)/bucketsPerChunk + 1
		ts := int64(rng.Intn(100)) * unit
		if far {
			ts -= 1 << 58
		}
		for i := 0; i < 5000; i++ {
			switch r := rng.Intn(100); {
			case r < 90:
				ts += int64(1+rng.Intn(4)) * unit
			case r < 98:
				ts += int64(rng.Intn(120)) * unit // skips buckets
			case far:
				ts += (1<<32 + int64(rng.Intn(3))) * tr.interval
			default:
				ts += int64(rng.Intn(3000)) * unit // may outrun the whole retention
			}
			v := float64(rng.Intn(100))
			if special && rng.Intn(4) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			if s.Append(ts, v) { // a zero gap repeats a timestamp: rejected
				ref.observe(ts, v)
			}
			if i%37 == 0 || i == 4999 {
				got, want := s.Buckets(spec.Interval), ref.all()
				if len(got) != len(want) {
					t.Fatalf("seed %d (retention %s) append %d: %d buckets, reference has %d", seed, spec.Retention, i, len(got), len(want))
				}
				for k := range got {
					if !sameBucket(got[k], want[k]) {
						t.Fatalf("seed %d (retention %s) append %d: bucket %d = %+v, reference %+v", seed, spec.Retention, i, k, got[k], want[k])
					}
				}
				if tr.retention > 0 && tr.chunks() > maxChunks {
					t.Fatalf("seed %d (retention %s) append %d: %d chunks retained, want at most %d", seed, spec.Retention, i, tr.chunks(), maxChunks)
				}
			}
		}
	}
}

// TestFullTierStaysBounded: once a tier holds a full retention of buckets,
// closing more neither allocates — a seal recycles the chunk eviction freed
// and the encode buffer — nor grows the tier.
func TestFullTierStaysBounded(t *testing.T) {
	tr := &tier{tierHead: &tierHead{interval: 10 * sec}, retention: 900 * 6 * sec} // the default 10s tier at 15 min raw retention
	ts := int64(0)
	closeBucket := func() {
		ts += tr.interval
		tr.observe(ts, 1)
	}
	for i := 0; i < 2000; i++ {
		closeBucket()
	}
	_, full := tr.footprint()
	closeChunks := func() {
		for i := 0; i < 4*bucketsPerChunk; i++ {
			closeBucket()
		}
	}
	for round := 0; round < 4; round++ {
		if allocs := testing.AllocsPerRun(1, closeChunks); allocs != 0 {
			t.Fatalf("closing %d buckets on a full tier allocates %.0f times", 4*bucketsPerChunk, allocs)
		}
		if _, bytes := tr.footprint(); bytes != full {
			t.Fatalf("a full tier grew from %d to %d bytes", full, bytes)
		}
	}
	all := tr.all()
	if want := int(tr.retention/tr.interval) + 1; len(all) != want || all[len(all)-1].Start != ts {
		t.Fatalf("%d buckets, newest starts at %ds; want %d, newest at %ds", len(all), all[len(all)-1].Start/sec, want, ts/sec)
	}
	for k := 1; k < len(all); k++ {
		if all[k].Start != all[k-1].Start+tr.interval {
			t.Fatalf("bucket %d starts at %ds after %ds", k, all[k].Start/sec, all[k-1].Start/sec)
		}
	}
}

// historyValue is the history-rw workload's generator (bench/history.go,
// sampleValue), copied: the value of (node, origin, metric) in a round.
func historyValue(seed int64, node, origin, metric int, round uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(node)<<56 ^ uint64(origin)<<48 ^ uint64(metric)<<40 ^ round
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	switch metric {
	case 0: // loadavg
		return 0.25 + 7.75*u*u
	case 2: // freemem
		return math.Floor(32e6 + 400e6*u)
	}
	return math.Floor(1 + 1e4*u)
}

// TestTierFootprint is the tiers' memory gate. One history-rw node — 320
// series, 16 origins × 20 metrics, at 15 min raw retention with the default
// tiers — is fed at 1 Hz until both tiers have run a full retention. It
// must then hold its buckets in at most 20 bytes each, counting buffers at
// capacity: the sealed chunks, the encode buffers, the evicted chunks kept
// for the next seal. Everything the tiers take — chunk headers and codec
// state besides — must stay within 0.4× the ring slots this replaced, 904
// slots of 56 bytes per series.
func TestTierFootprint(t *testing.T) {
	const origins, metrics = 16, 20
	retention := 15 * time.Minute
	tiers := DefaultTiers(retention)
	// Only the tiers are measured, so only the tiers are fed.
	series := make([]*Series, origins*metrics)
	for i := range series {
		series[i] = NewSeries(Options{Retention: retention, Tiers: tiers})
	}
	rounds := uint64((tiers[1].Retention + tiers[1].Interval*bucketsPerChunk) / time.Second)
	for r := uint64(1); r <= rounds; r++ {
		for i, s := range series {
			v := historyValue(20030623, 0, i/metrics, i%metrics, r)
			for _, tr := range s.tiers {
				tr.observe(int64(r)*sec, v)
			}
		}
	}
	var buckets, bytes, buffers int
	for _, s := range series {
		for _, tr := range s.tiers {
			n, b := tr.footprint()
			buckets, bytes = buckets+n, bytes+b
			buffers += cap(tr.w.buf)
			for _, c := range tr.sealed {
				buffers += cap(c.buf)
			}
			if tr.spare != nil {
				buffers += cap(tr.spare.buf)
			}
		}
	}
	perBucket := float64(buffers) / float64(buckets)
	perSeries, ring := float64(bytes)/float64(len(series)), 0.4*904*56
	t.Logf("%d series: %d tier buckets in %d bytes of buffers (%.1f per bucket), %d in all (%.0f per series)",
		len(series), buckets, buffers, perBucket, bytes, perSeries)
	if perBucket > 20 {
		t.Errorf("tier buffers take %.1f bytes per bucket, want at most 20", perBucket)
	}
	if perSeries > ring {
		t.Errorf("tiers take %.0f bytes per series, want at most %.0f", perSeries, ring)
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

// fullTierSeries is one series of the history-rw mix at its options, fed at
// 1 Hz until the 60s tier has run a full retention.
func fullTierSeries() *Series {
	retention := 15 * time.Minute
	tiers := DefaultTiers(retention)
	s := NewSeries(Options{Retention: retention, Tiers: tiers})
	for r := int64(1); r <= int64((tiers[1].Retention+tiers[1].Interval*bucketsPerChunk)/time.Second); r++ {
		s.Append(r*sec, mixValue(0, uint64(r)))
	}
	return s
}

// BenchmarkTierClose closes one bucket of a full 10s tier per op: the
// evict check, the encode of the closed bucket into the open chunk, and a
// seal with its copy every 64th op.
func BenchmarkTierClose(b *testing.B) {
	tr := fullTierSeries().tiers[0]
	ts := tr.cur.Start
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += tr.interval
		tr.observe(ts, mixValue(0, uint64(i)))
	}
}

// BenchmarkTierQuery answers an average from a full series' tiers: the last
// five minutes at 10 s, and the 60s tier's whole retention.
func BenchmarkTierQuery(b *testing.B) {
	s := fullTierSeries()
	for _, q := range []struct {
		name string
		q    Query
	}{
		{"last5m@10s", Query{Agg: AggAvg, Last: 5 * time.Minute, Res: 10 * time.Second}},
		{"all@60s", Query{Agg: AggAvg, Last: 6 * time.Hour, Res: time.Minute}},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(q.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
