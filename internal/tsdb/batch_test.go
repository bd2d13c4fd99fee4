// Tests for the batch append path: a batch is the unit of locking, WAL
// writing, fsync cadence and file retirement, and must be invisible in
// everything that is stored — the same samples give the same bytes on disk
// and the same answers whatever the batch sizes.
package tsdb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/tsdb"
)

type seqEntry struct {
	series int
	t      int64
	v      float64
}

// randomSequence is a seeded interleaving of appends to names, about one in
// ten of them stale (a timestamp its series has already passed), and how
// many of those there are.
func randomSequence(rng *rand.Rand, names []string, n int) (seq []seqEntry, stale int) {
	last := make([]int64, len(names))
	for i := 0; i < n; i++ {
		k := rng.Intn(len(names))
		if last[k] > 0 && rng.Intn(10) == 0 {
			seq = append(seq, seqEntry{k, last[k] - int64(rng.Intn(3))*int64(time.Second), -1})
			stale++
			continue
		}
		last[k] += int64(1+rng.Intn(3)) * int64(time.Second)
		seq = append(seq, seqEntry{k, last[k], float64(rng.Intn(1000)) / 8})
	}
	return seq, stale
}

// dirImage reads every file of dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBatchAppendMatchesSingleAppends is the golden equivalence: one sample
// sequence through Append one by one and through AppendBatch in random batch
// sizes, stale entries mid-batch included.
func TestBatchAppendMatchesSingleAppends(t *testing.T) {
	names := []string{"n0/loadavg", "n0/freemem", "n1/loadavg", "n1-peer07/diskusage"}
	cases := []struct {
		name string
		opts tsdb.Options
		// flush: retire files on both sides before comparing the directories.
		// Single appends retire after every seal and batches once per batch,
		// so between flushes the batch side may be a few deletions ahead.
		flush bool
	}{
		// No head seals, so no segment is ever deleted: every WAL byte the
		// run wrote is compared, across dozens of mid-batch rotations.
		{"wal-kept", tsdb.Options{ChunkSize: 1 << 20, WALSegmentBytes: 2048, FsyncEvery: -1}, false},
		{"seals-and-retention", tsdb.Options{
			ChunkSize: 32, Retention: 2 * time.Minute, Tiers: tsdb.DefaultTiers(2 * time.Minute),
			WALSegmentBytes: 4096, ChunkFileBytes: 2048, FsyncEvery: 7,
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20030623))
			seq, stale := randomSequence(rng, names, 6000)

			single, batched := tc.opts, tc.opts
			single.DataDir, batched.DataDir = t.TempDir(), t.TempDir()
			a, b := mustOpen(t, single), mustOpen(t, batched)
			for _, e := range seq {
				a.Append(names[e.series], e.t, e.v)
			}
			refs := make([]tsdb.Ref, len(names))
			for i, name := range names {
				refs[i] = b.Ref(name)
			}
			retained := 0
			for rest := seq; len(rest) > 0; {
				n := min(1+rng.Intn(40), len(rest))
				batch := make([]tsdb.Entry, n)
				for i, e := range rest[:n] {
					batch[i] = tsdb.Entry{Ref: refs[e.series], T: e.t, V: e.v}
				}
				retained += b.AppendBatch(batch)
				rest = rest[n:]
			}
			if want := len(seq) - stale; retained != want {
				t.Fatalf("AppendBatch retained %d samples, want %d", retained, want)
			}
			if tc.flush {
				for _, db := range []*tsdb.DB{a, b} {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}

			sa, sb := a.PersistStats(), b.PersistStats()
			if sa.WALAppends != sb.WALAppends || sa.WALBytes != sb.WALBytes {
				t.Fatalf("WAL counters differ: single %d records / %d B, batched %d / %d",
					sa.WALAppends, sa.WALBytes, sb.WALAppends, sb.WALBytes)
			}
			// Rejected entries are counted and never logged.
			if want := uint64(len(seq) - stale); sb.WALAppends != want {
				t.Fatalf("batched WALAppends = %d, want the %d accepted samples", sb.WALAppends, want)
			}
			if da, db := a.Stats().Dropped, b.Stats().Dropped; da != uint64(stale) || db != uint64(stale) {
				t.Fatalf("Dropped: single %d, batched %d, want %d", da, db, stale)
			}
			if sb.WALWrites >= sa.WALWrites || sa.WALWrites != sa.WALAppends {
				t.Fatalf("WALWrites: single %d (of %d records), batched %d", sa.WALWrites, sa.WALAppends, sb.WALWrites)
			}
			if sa.ChunksPersisted != sb.ChunksPersisted || sa.ChunkBytes != sb.ChunkBytes {
				t.Fatalf("chunk counters differ: %+v vs %+v", sa, sb)
			}

			ia, ib := dirImage(t, single.DataDir), dirImage(t, batched.DataDir)
			if ka, kb := sortedKeys(ia), sortedKeys(ib); !reflect.DeepEqual(ka, kb) {
				t.Fatalf("files differ:\nsingle  %v\nbatched %v", ka, kb)
			}
			segments := 0
			for name, buf := range ia {
				if !bytes.Equal(buf, ib[name]) {
					t.Fatalf("%s differs between single and batched appends (%d vs %d bytes)", name, len(buf), len(ib[name]))
				}
				if strings.HasPrefix(name, "wal-") {
					segments++
				}
			}
			if !tc.flush && segments < 20 {
				t.Fatalf("only %d segments compared; the run should rotate often", segments)
			}

			for _, name := range names {
				if ta, tb := a.Tail(name, 0), b.Tail(name, 0); !reflect.DeepEqual(ta, tb) {
					t.Fatalf("%s: Tail differs (%d vs %d samples)", name, len(ta), len(tb))
				}
				for _, q := range []tsdb.Query{
					{Agg: tsdb.AggAvg}, {Agg: tsdb.AggP99, Last: time.Minute}, {Agg: tsdb.AggCount},
				} {
					ra, ea := a.Query(name, q)
					rb, eb := b.Query(name, q)
					if (ea == nil) != (eb == nil) || ra.Value != rb.Value || ra.Count != rb.Count {
						t.Fatalf("%s %s: single (%+v, %v), batched (%+v, %v)", name, q.Agg, ra, ea, rb, eb)
					}
				}
			}
			// kill -9 both: the two directories recover to the same store.
			ra, rb := mustOpen(t, single), mustOpen(t, batched)
			for _, name := range names {
				if ta, tb := ra.Tail(name, 0), rb.Tail(name, 0); !reflect.DeepEqual(ta, tb) || len(ta) == 0 {
					t.Fatalf("%s: recovered Tail differs (%d vs %d samples)", name, len(ta), len(tb))
				}
			}
		})
	}
}

// reportBatch is what dmon.Store hands the tsdb per report: one sample for
// each of n series with equal-length names, all at timestamp t.
func reportBatch(db *tsdb.DB, n int, t int64, v float64) []tsdb.Entry {
	batch := make([]tsdb.Entry, n)
	for i := range batch {
		batch[i] = tsdb.Entry{Ref: db.Ref(reportSeries(i)), T: t, V: v}
	}
	return batch
}

func reportSeries(i int) string { return fmt.Sprintf("n0/m%02d", i) }

// TestTornWriteInsideBatch tears the single write of a batch inside its k-th
// record: recovery keeps exactly the k-1 records before the tear.
func TestTornWriteInsideBatch(t *testing.T) {
	const width, whole = 20, 3
	rl := recLen(reportSeries(0))
	for _, k := range []int{1, 7, width} {
		dir := t.TempDir()
		disk := faultnet.NewDisk(nil)
		disk.TearWriteAt("wal-", walHeader+(whole*width+k-1)*rl+11)
		db := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})
		for round := 0; round < whole+2; round++ {
			if got := db.AppendBatch(reportBatch(db, width, int64(round+1)*int64(time.Second), float64(round))); got != width {
				t.Fatalf("k=%d round %d: %d of %d samples retained — a torn disk must not drop live data", k, round, got, width)
			}
		}
		st := db.PersistStats()
		if st.WALErrors == 0 || disk.Stats().WritesTorn != 1 {
			t.Fatalf("k=%d: tear not surfaced: %+v / %+v", k, st, disk.Stats())
		}
		if want := uint64(whole*width + k - 1); st.WALAppends != want || st.WALBytes != want*uint64(rl) {
			t.Fatalf("k=%d: WALAppends %d / WALBytes %d, want the %d whole records on disk", k, st.WALAppends, st.WALBytes, want)
		}
		re := mustOpen(t, tsdb.Options{DataDir: dir})
		for i := 0; i < width; i++ {
			want := whole
			if i < k-1 {
				want++
			}
			if got := countOf(t, re, reportSeries(i)); got != want {
				t.Fatalf("k=%d: series %d recovered %d samples, want %d", k, i, got, want)
			}
		}
		if k > 1 && re.PersistStats().RecordsTruncated == 0 {
			t.Fatalf("k=%d: truncation not surfaced: %+v", k, re.PersistStats())
		}
	}
}

func TestNoSpaceInsideBatchDegradesToMemory(t *testing.T) {
	const width, rounds = 20, 3
	rl := recLen(reportSeries(0))
	dir := t.TempDir()
	disk := faultnet.NewDisk(nil)
	disk.LimitSpace(walHeader + (width+7)*rl + 5) // the second batch runs out inside its 8th record
	db := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})
	for round := 0; round < rounds; round++ {
		if got := db.AppendBatch(reportBatch(db, width, int64(round+1)*int64(time.Second), 1)); got != width {
			t.Fatalf("round %d: %d of %d retained — ENOSPC must not drop live data", round, got, width)
		}
	}
	if st := db.PersistStats(); st.WALErrors == 0 {
		t.Fatalf("ENOSPC not surfaced: %+v", st)
	}
	for i := 0; i < width; i++ {
		if got := countOf(t, db, reportSeries(i)); got != rounds {
			t.Fatalf("series %d holds %d samples in memory, want %d", i, got, rounds)
		}
	}
	re := mustOpen(t, tsdb.Options{DataDir: dir})
	total := 0
	for i := 0; i < width; i++ {
		total += countOf(t, re, reportSeries(i))
	}
	if total != width+7 {
		t.Fatalf("recovered %d samples, want the %d that fit", total, width+7)
	}
}

// TestFsyncCadenceAtBatchBoundaries: the fsync decision is taken once per
// batch, so with FsyncEvery n a returned batch leaves at most n-1 samples
// unsynced — a power cut after any batch loses exactly those — and the
// default cadence syncs every batch.
func TestFsyncCadenceAtBatchBoundaries(t *testing.T) {
	const width, every = 20, 50
	recovered := func(dir string) (n int) {
		re := mustOpen(t, tsdb.Options{DataDir: dir})
		for i := 0; i < width; i++ {
			n += countOf(t, re, reportSeries(i))
		}
		return n
	}
	for cut := 1; cut <= 12; cut++ {
		dir, disk := t.TempDir(), faultnet.NewDisk(nil)
		db := mustOpen(t, tsdb.Options{DataDir: dir, FsyncEvery: every, FS: disk})
		unsynced, fsyncs := 0, uint64(0)
		for round := 1; round <= cut; round++ {
			db.AppendBatch(reportBatch(db, width, int64(round)*int64(time.Second), 1))
			unsynced += width
			if now := db.PersistStats().Fsyncs; now != fsyncs {
				if now != fsyncs+1 {
					t.Fatalf("round %d: %d fsyncs for one batch", round, now-fsyncs)
				}
				fsyncs, unsynced = now, 0
			}
			if unsynced > every-1 {
				t.Fatalf("round %d: %d acknowledged samples unsynced, bound is %d", round, unsynced, every-1)
			}
		}
		if want := uint64(cut * width / 60); fsyncs != want { // a sync every third batch
			t.Fatalf("after %d batches: Fsyncs = %d, want %d", cut, fsyncs, want)
		}
		if err := disk.PowerCut(); err != nil {
			t.Fatal(err)
		}
		if got, want := recovered(dir), cut*width-unsynced; got != want {
			t.Fatalf("power cut after %d batches: recovered %d samples, want the %d synced", cut, got, want)
		}
	}

	dir, disk := t.TempDir(), faultnet.NewDisk(nil)
	def := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})
	for round := 1; round <= 5; round++ {
		def.AppendBatch(reportBatch(def, width, int64(round)*int64(time.Second), 1))
		if got := def.PersistStats().Fsyncs; got != uint64(round) {
			t.Fatalf("default cadence: %d fsyncs after %d batches", got, round)
		}
	}
	// kill -9, or even a power cut: every returned batch is there.
	if got := recovered(dir); got != 5*width {
		t.Fatalf("default cadence: kill -9 recovered %d samples, want %d", got, 5*width)
	}
	if err := disk.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if got := recovered(dir); got != 5*width {
		t.Fatalf("default cadence: power cut recovered %d samples, want %d", got, 5*width)
	}
}

// filesOnDisk counts dir's files of one kind ("wal-" or "chunks-").
func filesOnDisk(t *testing.T, dir, prefix string) int {
	t.Helper()
	n := 0
	for name := range dirImage(t, dir) {
		if strings.HasPrefix(name, prefix) {
			n++
		}
	}
	return n
}

// TestQuietSeriesDoesNotPinTheWAL is the regression for the wedge: a series
// that stops appending never seals its head and its retention horizon never
// moves, so it holds the segment with its last samples forever — and, while
// segments were deleted oldest-first, every later one with it. A segment now
// goes as soon as nothing pins it, which leaves one stranded segment per
// quiet series: the staggered case has sixteen series go quiet in sixteen
// different segments, and the quiet-series rule must still bound the WAL.
func TestQuietSeriesDoesNotPinTheWAL(t *testing.T) {
	for _, tc := range []struct {
		quiet int
		drop  bool
	}{{1, false}, {1, true}, {16, false}} {
		dir := t.TempDir()
		opts := tsdb.Options{DataDir: dir, Retention: time.Minute, WALSegmentBytes: 4096, FsyncEvery: -1}
		db := mustOpen(t, opts)
		want := map[string][]tsdb.Point{}
		ts := int64(0)
		for q := 0; q < tc.quiet; q++ {
			name := fmt.Sprintf("quiet%02d", q)
			fill(t, db, name, 0, 10)
			want[name] = db.Tail(name, 0)
			if tc.drop {
				db.Drop(name)
			}
			ts = fill(t, db, "busy", ts, 200) // more than a segment's worth
		}
		fill(t, db, "busy", ts, 20000-200*tc.quiet)
		want["busy"] = db.Tail("busy", 0)
		st := db.PersistStats()
		if st.SegmentsDeleted == 0 {
			t.Fatalf("%+v: no segment deleted of %d sealed: the quiet series pins the WAL", tc, st.SegmentsSealed)
		}
		// One seal interval of the busy series is about two segments; the
		// quiet-series rule allows eight closed ones on top.
		if n := filesOnDisk(t, dir, "wal-"); n > 12 {
			t.Fatalf("%+v: %d WAL segments on disk after %d sealed", tc, n, st.SegmentsSealed)
		}
		if tc.drop {
			continue // what a reopen makes of a dropped series' files is not this test's business
		}
		// A lone quiet series strands its one segment and keeps its head; of
		// sixteen, all but the eight segments' worth the rule tolerates had
		// theirs sealed early, on top of busy's full chunks.
		if early := int(st.ChunksPersisted) - 20000/256; early < tc.quiet-8 {
			t.Fatalf("%+v: %d heads sealed early, want at least %d", tc, early, tc.quiet-8)
		}
		re := mustOpen(t, opts) // kill -9
		if rst := re.PersistStats(); rst.SegmentsReplayed > 12 {
			t.Fatalf("%+v: reopen replayed %d segments", tc, rst.SegmentsReplayed)
		}
		for name, pts := range want {
			if got := re.Tail(name, 0); !reflect.DeepEqual(got, pts) || len(pts) == 0 {
				t.Fatalf("%+v: %s: reopen returned %d samples, want the %d retained", tc, name, len(got), len(pts))
			}
		}
	}
}

// TestSlowSeriesKeepsItsHead: the quiet-series rule must not fire on a series
// that is merely slower than its neighbours.
func TestSlowSeriesKeepsItsHead(t *testing.T) {
	db := mustOpen(t, tsdb.Options{DataDir: t.TempDir(), WALSegmentBytes: 4096, FsyncEvery: -1})
	ts := int64(0)
	for i := 0; i < 20000; i++ {
		ts += int64(time.Second)
		db.Append("busy", ts, 1)
		if i%200 == 0 { // shows up every other segment or so
			db.Append("slow", ts, 1)
		}
	}
	// busy seals a full chunk every 256 samples and slow, at 100 samples,
	// never: any further chunk record is an early seal.
	if got, want := db.PersistStats().ChunksPersisted, uint64(20000/256); got != want {
		t.Fatalf("ChunksPersisted = %d, want %d: a live series had its head sealed early", got, want)
	}
}

// countingFS counts what reaches the files of a data dir: the writes to WAL
// segments (with their sizes, into a buffer sized up front so that counting
// allocates nothing), the fsyncs of any file, and the WAL segments created.
type countingFS struct {
	tsdb.FS
	walWrites []int // bytes of each WAL write
	syncs     int
	segments  int
}

func newCountingFS() *countingFS {
	return &countingFS{FS: tsdb.OSFS{}, walWrites: make([]int, 0, 1<<12)}
}

func (c *countingFS) Create(name string) (tsdb.FileWriter, error) {
	fw, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	wal := strings.HasPrefix(filepath.Base(name), "wal-")
	if wal {
		c.segments++
	}
	return &countingFile{FileWriter: fw, fs: c, wal: wal}, nil
}

type countingFile struct {
	tsdb.FileWriter
	fs  *countingFS
	wal bool
	hdr bool // the segment header has been written
}

func (f *countingFile) Write(p []byte) (int, error) {
	if f.wal && f.hdr {
		f.fs.walWrites = append(f.fs.walWrites, len(p))
	}
	f.hdr = true
	return f.FileWriter.Write(p)
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.FileWriter.Sync()
}

// TestIngestCountsPerBatch pins DESIGN §10's per-batch costs of a durable
// append: a 20-sample AppendBatch is one WAL write of its 20 records; it
// fsyncs nothing at cadence -1 and once at cadence 1; where the segment
// fills, the records up to and including the one that fills it are written
// early, the segment rotates on that record, and the rest go to the next
// segment in the batch's closing write; and between head seals (and WAL
// rotations) a batch allocates nothing.
func TestIngestCountsPerBatch(t *testing.T) {
	const width = 20
	rl := recLen(reportSeries(0))
	for _, every := range []int{-1, 1} {
		fs := newCountingFS()
		// The segment fills with the 6th record of the third batch.
		segment := walHeader + (2*width+6)*rl
		db := mustOpen(t, tsdb.Options{DataDir: t.TempDir(), FsyncEvery: every, FS: fs, WALSegmentBytes: segment})
		batch := reportBatch(db, width, 0, 0)
		round := int64(0)
		next := func() {
			round++
			for i := range batch {
				batch[i].T, batch[i].V = round*int64(time.Second), float64(round%7)
			}
			if got := db.AppendBatch(batch); got != width {
				t.Fatalf("cadence %d round %d: %d of %d samples retained", every, round, got, width)
			}
		}
		syncsPerBatch := 0
		if every == 1 {
			syncsPerBatch = 1
		}
		for round < 2 {
			writes, syncs := len(fs.walWrites), fs.syncs
			next()
			if got := fs.walWrites[writes:]; len(got) != 1 || got[0] != width*rl {
				t.Fatalf("cadence %d round %d: WAL writes of %v bytes, want one of %d", every, round, got, width*rl)
			}
			if got := fs.syncs - syncs; got != syncsPerBatch {
				t.Fatalf("cadence %d round %d: %d fsyncs, want %d", every, round, got, syncsPerBatch)
			}
		}

		writes, syncs := len(fs.walWrites), fs.syncs
		next()
		if got := fs.walWrites[writes:]; len(got) != 2 || got[0] != 6*rl || got[1] != (width-6)*rl {
			t.Fatalf("cadence %d, the batch that fills the segment: WAL writes of %v bytes, want %d then %d", every, got, 6*rl, (width-6)*rl)
		}
		if fs.segments != 2 {
			t.Fatalf("cadence %d: %d WAL segments created, want 2", every, fs.segments)
		}
		// At a cadence the rotation syncs the full segment, and the batch's
		// own decision the next one; without, neither.
		if got := fs.syncs - syncs; got != 2*syncsPerBatch {
			t.Fatalf("cadence %d, the batch that fills the segment: %d fsyncs, want %d", every, got, 2*syncsPerBatch)
		}

		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A head sized from the chunk sealed before it takes the rest of its
	// chunk without growing; a segment of the default size, 100 batches
	// without rotating.
	db := mustOpen(t, tsdb.Options{DataDir: t.TempDir(), FsyncEvery: -1})
	defer db.Close()
	batch := reportBatch(db, width, 0, 0)
	round := int64(0)
	next := func() {
		round++
		for i := range batch {
			batch[i].T, batch[i].V = round*int64(time.Second), float64(round%7)
		}
		db.AppendBatch(batch)
	}
	for round < tsdb.DefaultChunkSize+1 {
		next()
	}
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("%.1f allocations per batch between seals, want 0", allocs)
	}
}
