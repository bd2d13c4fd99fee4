package dmon

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
)

// newStore is an empty in-memory store with default options.
func newStore(t testing.TB) *Store {
	t.Helper()
	s, err := OpenStore(StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func reportAt(node string, seq uint64, value float64) *metrics.Report {
	ts := clock.Epoch.Add(time.Duration(seq) * time.Second)
	return &metrics.Report{
		Node: node, Seq: seq, Time: ts,
		Samples: []metrics.Sample{{ID: metrics.LOADAVG, Value: value, Time: ts}},
	}
}

func TestHistoryAccumulatesInOrder(t *testing.T) {
	s := newStore(t)
	for i := 1; i <= 5; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	h := s.History("alan", metrics.LOADAVG, 0)
	if len(h) != 5 {
		t.Fatalf("history length = %d", len(h))
	}
	for i, sample := range h {
		if sample.Value != float64(i+1) {
			t.Fatalf("history = %v, want oldest-first 1..5", h)
		}
		if want := clock.Epoch.Add(time.Duration(i+1) * time.Second); !sample.Time.Equal(want) {
			t.Fatalf("history[%d].Time = %v, want %v", i, sample.Time, want)
		}
	}
	// A bounded request returns the most recent n.
	h2 := s.History("alan", metrics.LOADAVG, 2)
	if len(h2) != 2 || h2[0].Value != 4 || h2[1].Value != 5 {
		t.Fatalf("History(2) = %v", h2)
	}
}

func TestHistoryDefaultViewIsDepthBounded(t *testing.T) {
	s := newStore(t)
	total := HistoryDepth + 17
	for i := 1; i <= total; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	h := s.History("alan", metrics.LOADAVG, 0)
	if len(h) != HistoryDepth {
		t.Fatalf("history length = %d, want %d", len(h), HistoryDepth)
	}
	// Oldest in the default view is total-HistoryDepth+1.
	if h[0].Value != float64(total-HistoryDepth+1) || h[len(h)-1].Value != float64(total) {
		t.Fatalf("history range = [%g, %g]", h[0].Value, h[len(h)-1].Value)
	}
	// The tsdb retains the full run underneath the 64-deep default view.
	if deep := s.History("alan", metrics.LOADAVG, total); len(deep) != total {
		t.Fatalf("explicit History(%d) = %d samples", total, len(deep))
	}
}

// openStore opens a memory-only store with opts.
func openStore(t testing.TB, opts StoreOptions) *Store {
	t.Helper()
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHistoryDepthOption(t *testing.T) {
	s := openStore(t, StoreOptions{HistoryDepth: 8})
	for i := 1; i <= 20; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	h := s.History("alan", metrics.LOADAVG, 0)
	if len(h) != 8 || h[0].Value != 13 || h[7].Value != 20 {
		t.Fatalf("History(0) with depth 8 = %v", h)
	}
}

func TestHistoryRetentionOption(t *testing.T) {
	s := openStore(t, StoreOptions{Retention: time.Minute, ChunkSize: 16})
	for i := 1; i <= 600; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	st := s.TSDB().Stats()
	// One chunk (16 samples) spans 16s; a 60s window keeps at most a
	// handful of chunks plus the head.
	if st.Samples > 5*16+16 {
		t.Fatalf("retention kept %d samples for a 60s window at 1 Hz", st.Samples)
	}
	if h := s.History("alan", metrics.LOADAVG, 0); h[len(h)-1].Value != 600 {
		t.Fatal("newest sample lost to retention")
	}
}

func TestHistoryMissingNodeOrMetric(t *testing.T) {
	s := newStore(t)
	if h := s.History("ghost", metrics.LOADAVG, 0); h != nil {
		t.Fatalf("history for unknown node = %v", h)
	}
	s.Update(reportAt("alan", 1, 1))
	if h := s.History("alan", metrics.FREEMEM, 0); h != nil {
		t.Fatalf("history for unreported metric = %v", h)
	}
}

func TestHistoryForgottenWithNode(t *testing.T) {
	s := newStore(t)
	s.Update(reportAt("alan", 1, 1))
	s.Forget("alan")
	if h := s.History("alan", metrics.LOADAVG, 0); h != nil {
		t.Fatal("history survived Forget")
	}
	if n := s.TSDB().Stats().Series; n != 0 {
		t.Fatalf("%d tsdb series survived Forget", n)
	}
}

// TestHistoryIgnoresReplayedReports: a replayed report neither duplicates
// history nor rolls the latest-value view back to its older sample; a
// report as new as the held one (a re-sent value) does replace it.
func TestHistoryIgnoresReplayedReports(t *testing.T) {
	s := newStore(t)
	s.Update(reportAt("alan", 1, 1))
	s.Update(reportAt("alan", 2, 2))
	s.Update(reportAt("alan", 1, 1)) // replayed
	if h := s.History("alan", metrics.LOADAVG, 0); len(h) != 2 {
		t.Fatalf("replayed report duplicated history: %v", h)
	}
	if got, ok := s.Get("alan", metrics.LOADAVG); !ok || got.Value != 2 || !got.Time.Equal(reportAt("alan", 2, 0).Time) {
		t.Fatalf("after a replay of t=1, Get = %+v, %v; want the t=2 sample", got, ok)
	}
	if v, ok := s.Value("alan", metrics.LOADAVG); !ok || v != 2 {
		t.Fatalf("after a replay of t=1, Value = %v, %v; want 2", v, ok)
	}
	s.Update(reportAt("alan", 2, 5)) // the same instant, a corrected value
	if v, _ := s.Value("alan", metrics.LOADAVG); v != 5 {
		t.Fatalf("a sample as new as the held one: Value = %v, want 5", v)
	}
}

func TestStoreQuery(t *testing.T) {
	s := newStore(t)
	for i := 1; i <= 60; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	out, err := s.Query("alan", "avg loadavg last 10s")
	if err != nil {
		t.Fatal(err)
	}
	// Samples 51..60 → avg 55.5.
	if !strings.Contains(out, "value 55.5\n") || !strings.Contains(out, "samples 10\n") {
		t.Fatalf("query result = %q", out)
	}
	if _, err := s.Query("alan", "avg nope last 10s"); err == nil {
		t.Fatal("query for unknown metric succeeded")
	}
	if _, err := s.Query("ghost", "avg loadavg last 10s"); err == nil {
		t.Fatal("query for unknown node succeeded")
	}
	if _, err := s.Query("alan", "gibberish"); err == nil {
		t.Fatal("malformed query succeeded")
	}
}

// Property: appending N >> depth samples yields the newest samples
// oldest-first with no duplicates — under both the depth-bounded History
// view and the full tsdb tail.
func TestQuickHistoryWraparound(t *testing.T) {
	f := func(extra uint16) bool {
		s := openStore(t, StoreOptions{ChunkSize: 32})
		n := HistoryDepth + 1 + int(extra)%1000
		for i := 1; i <= n; i++ {
			s.Update(reportAt("alan", uint64(i), float64(i)))
		}
		// Default view: exactly the newest HistoryDepth, oldest first.
		view := s.History("alan", metrics.LOADAVG, 0)
		if len(view) != HistoryDepth {
			return false
		}
		for i, sample := range view {
			if sample.Value != float64(n-HistoryDepth+1+i) {
				return false
			}
		}
		// Full tsdb tail: every sample exactly once, strictly increasing.
		full := s.TSDB().Tail("alan/loadavg", 0)
		if len(full) != n {
			return false
		}
		for i := 1; i < len(full); i++ {
			if full[i].T <= full[i-1].T || full[i].V != full[i-1].V+1 {
				return false
			}
		}
		return full[len(full)-1].V == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDurableStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{DataDir: dir}
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	if !s.Persistent() {
		t.Fatal("store with DataDir not persistent")
	}
	if st := s.PersistStats(); st.WALAppends != 20 {
		t.Fatalf("WALAppends = %d, want 20", st.WALAppends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Updates after Close keep the latest-value map live but skip history.
	s.Update(reportAt("alan", 21, 21))
	if v, ok := s.Value("alan", metrics.LOADAVG); !ok || v != 21 {
		t.Fatalf("latest value after close = %v, %v", v, ok)
	}

	re, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	h := re.History("alan", metrics.LOADAVG, 0)
	if len(h) != 20 {
		t.Fatalf("recovered history length = %d, want 20", len(h))
	}
	for i, sample := range h {
		if sample.Value != float64(i+1) {
			t.Fatalf("recovered history = %v, want 1..20", h)
		}
	}
	// The recovered store answers queries and keeps accumulating.
	out, err := re.Query("alan", "max loadavg")
	if err != nil || !strings.Contains(out, "value 20") {
		t.Fatalf("query after recovery = %q, %v", out, err)
	}
	re.Update(reportAt("alan", 30, 30))
	if h := re.History("alan", metrics.LOADAVG, 1); len(h) != 1 || h[0].Value != 30 {
		t.Fatalf("append after recovery = %v", h)
	}
}

func TestDurableStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{DataDir: dir}
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		s.Update(reportAt("alan", uint64(i), float64(i)))
	}
	// No Close: the process dies. Default cadence fsyncs every record.
	re, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.PersistStats(); st.RecordsReplayed != 7 {
		t.Fatalf("RecordsReplayed = %d, want 7: %+v", st.RecordsReplayed, st)
	}
	if h := re.History("alan", metrics.LOADAVG, 0); len(h) != 7 {
		t.Fatalf("recovered history length = %d, want 7", len(h))
	}
}

// fullReport is a report carrying every metric, all stamped at seq seconds
// past the epoch — what the history benchmark's origins send.
func fullReport(node string, seq uint64, value float64) *metrics.Report {
	r := reportAt(node, seq, value)
	r.Samples = make([]metrics.Sample, metrics.NumIDs)
	for id := range r.Samples {
		r.Samples[id] = metrics.Sample{ID: metrics.ID(id), Value: value, Time: r.Time}
	}
	return r
}

// TestForgetThenUpdateRecreatesSeries: the store caches a tsdb handle per
// (node, metric); Forget must not leave one behind that points at a dropped
// series.
func TestForgetThenUpdateRecreatesSeries(t *testing.T) {
	for _, durable := range []bool{false, true} {
		opts := StoreOptions{}
		if durable {
			opts.DataDir = t.TempDir()
		}
		s, err := OpenStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 10; i <= 15; i++ {
			s.Update(fullReport("alan", uint64(i), float64(i)))
		}
		s.Forget("alan")
		if _, ok := s.Get("alan", metrics.LOADAVG); ok || len(s.Metrics("alan")) != 0 || s.TSDB().Stats().Series != 0 {
			t.Fatalf("durable=%v: state survived Forget: %v, %d series", durable, s.Metrics("alan"), s.TSDB().Stats().Series)
		}
		if last, n := s.LastReport("alan"); !last.IsZero() || n != 0 {
			t.Fatalf("durable=%v: LastReport after Forget = %v, %d", durable, last, n)
		}
		// The node comes back, its clock behind where it left: a fresh series
		// accepts what the old one would have rejected as stale.
		s.Update(fullReport("alan", 3, 3))
		s.Update(fullReport("alan", 4, 4))
		for _, id := range []metrics.ID{metrics.LOADAVG, metrics.POWERDRAW} {
			h := s.History("alan", id, 0)
			if len(h) != 2 || h[0].Value != 3 || h[1].Value != 4 {
				t.Fatalf("durable=%v: %s history after Forget+Update = %v, want the two new samples", durable, id, h)
			}
		}
		if got := s.TSDB().Stats().Series; got != int(metrics.NumIDs) {
			t.Fatalf("durable=%v: %d series after Forget+Update, want %d", durable, got, metrics.NumIDs)
		}
		if st := s.TSDB().Stats(); st.Dropped != 0 {
			t.Fatalf("durable=%v: %d samples rejected", durable, st.Dropped)
		}
		if v, ok := s.Value("alan", metrics.FREEMEM); !ok || v != 4 {
			t.Fatalf("durable=%v: latest value = %v, %v", durable, v, ok)
		}
		if _, n := s.LastReport("alan"); n != 2 {
			t.Fatalf("durable=%v: report count = %d, want 2", durable, n)
		}
		// A series dropped behind the store's back is recreated too.
		s.TSDB().Drop("alan/loadavg")
		s.Update(fullReport("alan", 5, 5))
		if h := s.History("alan", metrics.LOADAVG, 0); len(h) != 1 || h[0].Value != 5 {
			t.Fatalf("durable=%v: history after tsdb Drop = %v, want the one new sample", durable, h)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentUpdates runs Update for several nodes from several
// goroutines beside readers and a Forget loop, for the race detector
// (`make check`); the assertions are only what must hold however they
// interleave.
func TestConcurrentUpdates(t *testing.T) {
	const writers, rounds = 4, 300
	s, err := OpenStore(StoreOptions{DataDir: t.TempDir(), FsyncEvery: -1, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own, shared := fmt.Sprintf("node%d", w), "shared"
			for i := 1; i <= rounds; i++ {
				s.Update(fullReport(own, uint64(i), float64(i)))
				s.Update(fullReport(shared, uint64(w*rounds+i), 1))
				s.Update(fullReport("flapping", uint64(i), 1))
			}
		}(w)
	}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Forget("flapping")
			s.Get("shared", metrics.LOADAVG)
			s.Metrics("node0")
			s.Nodes()
			s.LastReport("node1")
			s.History("node2", metrics.NETBW, 8)
			_, _ = s.Query("shared", "max loadavg last 1m")
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	for w := 0; w < writers; w++ {
		node := fmt.Sprintf("node%d", w)
		for id := metrics.ID(0); id < metrics.NumIDs; id++ {
			if h := s.History(node, id, rounds); len(h) != rounds || h[rounds-1].Value != rounds {
				t.Fatalf("%s/%s: %d samples, want %d in order", node, id, len(h), rounds)
			}
		}
		if _, n := s.LastReport(node); n != rounds {
			t.Fatalf("%s: %d reports counted, want %d", node, n, rounds)
		}
	}
	if _, n := s.LastReport("shared"); n != writers*rounds {
		t.Fatalf("shared: %d reports counted, want %d", n, writers*rounds)
	}
	if e := s.PersistStats().WALErrors; e != 0 {
		t.Fatalf("%d WAL errors", e)
	}
}

// BenchmarkStoreUpdateDurable is the history ingest path of one node at
// steady state: 16 origins in turn hand a durable store a report of every
// metric, with both downsampling tiers full (the retention is short, so the
// warm-up fills them, and runs until each tier has sealed and evicted a
// bucket chunk) and sealed chunks evicted as fast as they are made.
// `make allocgate` holds it at 0 allocs/op: what allocates is a head seal (a
// chunk and its buffer per 256 samples per series), a WAL segment's pin
// list and a tier chunk's copy when the evicted chunk's buffer does not fit
// it, a fraction of an allocation per report and nothing per sample.
func BenchmarkStoreUpdateDurable(b *testing.B) {
	const origins = 16
	s, err := OpenStore(StoreOptions{DataDir: b.TempDir(), FsyncEvery: -1, Retention: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	reports := make([]*metrics.Report, origins)
	for o := range reports {
		reports[o] = fullReport(fmt.Sprintf("origin%02d", o), 0, 0)
	}
	n := 0
	update := func() {
		r := reports[n%origins]
		n++
		r.Seq = uint64(n/origins + 1)
		r.Time = clock.Epoch.Add(time.Duration(r.Seq) * time.Second)
		for i := range r.Samples {
			r.Samples[i].Value, r.Samples[i].Time = float64(n%97), r.Time
		}
		s.Update(r)
	}
	for i := 0; i < 4500*origins; i++ { // 75 minutes: the 60s tier has sealed a chunk and evicted it
		update()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
	b.StopTimer()
	if st := s.PersistStats(); st.WALErrors != 0 || st.WALAppends/st.WALWrites < uint64(metrics.NumIDs)-1 {
		b.Fatalf("not one write per report: %+v", st)
	}
}

// BenchmarkIngestRound is the ingest side of the history-rw benchmark
// without its cluster: four durable stores at FsyncEvery -1 with its 15
// minute retention, each handed one report of every metric from each of 16
// origins per round — 1280 series, each touched once per round. One op is
// one round, 1280 samples. Unlike BenchmarkStoreUpdateDurable, whose 320
// series stay in cache, this measures an append that lands on series state
// the other 1279 series have pushed out of it. The values are a seeded
// spread per (store, origin, metric), so the chunks compress as history-rw's
// do; the warm-up runs past the retention, so sealing and eviction run
// inside the timed rounds.
func BenchmarkIngestRound(b *testing.B) {
	const stores, origins = 4, 16
	type node struct {
		s       *Store
		reports []*metrics.Report
	}
	nodes := make([]node, stores)
	for i := range nodes {
		s, err := OpenStore(StoreOptions{DataDir: b.TempDir(), FsyncEvery: -1, Retention: 15 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		nodes[i].s = s
		for o := 0; o < origins; o++ {
			nodes[i].reports = append(nodes[i].reports, fullReport(fmt.Sprintf("origin%02d", o), 0, 0))
		}
	}
	// value is a splitmix64 draw per (store, origin, metric, round), spread
	// over a range per metric as a monitored host's would be.
	value := func(i, o int, id metrics.ID, round uint64) float64 {
		x := uint64(i)<<56 ^ uint64(o)<<48 ^ uint64(id)<<40 ^ round
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return float64(uint64(1)+x%(uint64(id)*1000+10)) / 4
	}
	round := uint64(0)
	ingest := func() {
		round++
		t := clock.Epoch.Add(time.Duration(round) * time.Second)
		for i, n := range nodes {
			for o, r := range n.reports {
				r.Seq, r.Time = round, t
				for k := range r.Samples {
					sm := &r.Samples[k]
					sm.Value, sm.Time = value(i, o, sm.ID, round), t
				}
				n.s.Update(r)
			}
		}
	}
	for range 1200 { // 20 minutes: past the retention, so chunks are evicted
		ingest()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stores*origins*int(metrics.NumIDs)), "ns/sample")
}

// Metrics lists the metric IDs known for a node, ascending: the tests' view
// of the presence mask that Get and Value read.
func (s *Store) Metrics(node string) []metrics.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var present uint32
	if n := s.nodes[node]; n != nil {
		present = n.present
	}
	out := make([]metrics.ID, 0, bits.OnesCount32(present))
	for id := metrics.ID(0); id < metrics.NumIDs; id++ {
		if present&(1<<id) != 0 {
			out = append(out, id)
		}
	}
	return out
}
