package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeAll drains an iterator, failing the test on decode errors.
func decodeAll(t *testing.T, c *Chunk) []Point {
	t.Helper()
	var out []Point
	it := c.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		out = append(out, p)
	}
	if it.Err() != nil {
		t.Fatalf("iterator error: %v", it.Err())
	}
	return out
}

func samePoint(a, b Point) bool {
	// Bit-exact value comparison so NaN payloads round-trip too.
	return a.T == b.T && math.Float64bits(a.V) == math.Float64bits(b.V)
}

func TestChunkRoundTripRegular(t *testing.T) {
	var c Chunk
	want := make([]Point, 500)
	for i := range want {
		want[i] = Point{T: int64(i) * 1e9, V: 1.5 + float64(i%7)*0.25}
		c.Append(want[i].T, want[i].V)
	}
	got := decodeAll(t, &c)
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Every delta-of-delta encoding class boundary round-trips.
func TestChunkTimestampClasses(t *testing.T) {
	deltas := []int64{
		1e9, 1e9, // dod 0
		1e9 + (1<<13 - 1), 1e9 - 1<<13, // 14-bit edges
		1e9 + (1<<23 - 1), 1e9 - 1<<23, // 24-bit edges
		1e9 + (1<<35 - 1), 1e9 - 1<<35, // 36-bit edges
		1e9 + 1<<40, // 64-bit fallback
	}
	var c Chunk
	var want []Point
	ts := int64(1e15)
	c.Append(ts, 1)
	want = append(want, Point{T: ts, V: 1})
	for i, d := range deltas {
		// Keep timestamps strictly increasing by spacing out the base.
		ts += 2<<36 + d
		p := Point{T: ts, V: float64(i)}
		c.Append(p.T, p.V)
		want = append(want, p)
	}
	got := decodeAll(t, &c)
	for i := range want {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Property: any strictly-increasing time series round-trips bit-exactly,
// including NaN and infinite values.
func TestQuickChunkRoundTrip(t *testing.T) {
	f := func(rawDeltas []uint32, rawVals []uint64) bool {
		n := len(rawDeltas)
		if len(rawVals) < n {
			n = len(rawVals)
		}
		var c Chunk
		var want []Point
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += int64(rawDeltas[i]) + 1 // strictly increasing
			p := Point{T: ts, V: math.Float64frombits(rawVals[i])}
			c.Append(p.T, p.V)
			want = append(want, p)
		}
		it := c.Iter()
		for i := 0; i < n; i++ {
			p, ok := it.Next()
			if !ok || !samePoint(p, want[i]) {
				return false
			}
		}
		_, ok := it.Next()
		return !ok && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkSummaryTracksAppends(t *testing.T) {
	var c Chunk
	vals := []float64{3, 1, 4, 1.5, 9}
	for i, v := range vals {
		c.Append(int64(i)*1e9, v)
	}
	s := c.Summary()
	if s.Count != 5 || s.TMin != 0 || s.TMax != 4e9 {
		t.Fatalf("summary time bounds = %+v", s)
	}
	if s.First != 3 || s.Last != 9 || s.Min != 1 || s.Max != 9 || s.Sum != 18.5 {
		t.Fatalf("summary stats = %+v", s)
	}
}

// A slowly-varying, regularly-sampled series — the monitoring workload —
// must compress well below the 4 bytes/sample acceptance bound.
func TestChunkCompressionSlowlyVarying(t *testing.T) {
	s := NewSeries(Options{})
	const n = 100_000
	rng := rand.New(rand.NewSource(42))
	v := 1.52
	for i := 0; i < n; i++ {
		// loadavg-like: the kernel value changes every few seconds while
		// the monitor samples every second, so runs of identical values
		// are the common case.
		if i%8 == 0 {
			v = math.Round((1.5+rng.Float64())*100) / 100
		}
		s.Append(int64(i)*1e9, v)
	}
	bps := float64(s.Bytes()) / float64(s.Count())
	if s.Count() != n {
		t.Fatalf("retained %d samples, want %d", s.Count(), n)
	}
	if bps > 4 {
		t.Fatalf("compression = %.2f bytes/sample, want <= 4 (raw is 16)", bps)
	}
	t.Logf("compression: %.2f bytes/sample over %d samples", bps, n)
}

// mixValue is a sample of the history-rw workload's value mix (bench/): of
// each report's 20 metrics, one a skewed load average, one a free-memory
// byte count and the rest integer counters, every one a fresh draw each
// round — the XOR window moves on most samples.
func mixValue(metric int, round uint64) float64 {
	x := uint64(metric)<<40 ^ round
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	switch metric {
	case 0:
		return 0.25 + 7.75*u*u
	case 1:
		return math.Floor(32e6 + 400e6*u)
	}
	return math.Floor(1 + 1e4*u)
}

const mixMetrics = 20

// mixChunk is n samples of one metric of the mix at 1 s spacing.
func mixChunk(metric, n int) *Chunk {
	var c Chunk
	for i := 0; i < n; i++ {
		c.Append(int64(i+1)*1e9, mixValue(metric, uint64(i)))
	}
	return &c
}

// BenchmarkChunkAppend encodes one full chunk (DefaultChunkSize samples)
// per op, cycling through the mix's metrics, into a buffer sized as
// Series.sealHead sizes a new head.
func BenchmarkChunkAppend(b *testing.B) {
	vals := make([][]float64, mixMetrics)
	size := 0
	for m := range vals {
		for i := 0; i < DefaultChunkSize; i++ {
			vals[m] = append(vals[m], mixValue(m, uint64(i)))
		}
		size = max(size, mixChunk(m, DefaultChunkSize).Bytes())
	}
	buf := make([]byte, 0, size+size/16+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Chunk{w: bitWriter{buf: buf[:0]}}
		for k, v := range vals[i%mixMetrics] {
			c.Append(int64(k+1)*1e9, v)
		}
	}
}

// BenchmarkChunkIter decodes one full chunk of the mix per op.
func BenchmarkChunkIter(b *testing.B) {
	chunks := make([]*Chunk, mixMetrics)
	for m := range chunks {
		chunks[m] = mixChunk(m, DefaultChunkSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := chunks[i%mixMetrics].Iter()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
		if it.Err() != nil {
			b.Fatal(it.Err())
		}
	}
}
