// Crash-recovery tests for the tsdb persistence layer. They live in an
// external test package so they can drive the store through faultnet's
// disk-fault injector (faultnet imports tsdb for the FS interface): torn
// writes at scripted byte offsets, short reads, exhausted space and failed
// fsyncs, each followed by a reopen that must recover exactly the durable
// prefix — never panic, never fail the open.
package tsdb_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/tsdb"
)

// WAL sizing facts the byte-accounting tests lean on (pinned by
// TestWALRecordSizeAccounting below so a format change can't silently
// invalidate them): a segment starts with a 9-byte header, and a sample
// record costs 27+len(name) bytes.
const (
	walHeader  = 9
	recFixed   = 27
	testSeries = "cpu"
)

func recLen(name string) int { return recFixed + len(name) }

func mustOpen(t *testing.T, opts tsdb.Options) *tsdb.DB {
	t.Helper()
	db, err := tsdb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fill appends n samples at 1s spacing starting at start, value = sample
// index (easy prefix assertions), returning the timestamp after the last.
func fill(t *testing.T, db *tsdb.DB, name string, start int64, n int) int64 {
	t.Helper()
	ts := start
	for i := 0; i < n; i++ {
		if !db.Append(name, ts, float64(i)) {
			t.Fatalf("append %d at %d rejected", i, ts)
		}
		ts += int64(time.Second)
	}
	return ts
}

func countOf(t *testing.T, db *tsdb.DB, name string) int {
	t.Helper()
	res, err := db.Query(name, tsdb.Query{Agg: tsdb.AggCount})
	if err != nil {
		return 0
	}
	return int(res.Value)
}

func TestWALRecordSizeAccounting(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, tsdb.Options{DataDir: dir})
	fill(t, db, testSeries, 0, 5)
	st := db.PersistStats()
	if st.WALAppends != 5 {
		t.Fatalf("WALAppends = %d, want 5", st.WALAppends)
	}
	if want := uint64(5 * recLen(testSeries)); st.WALBytes != want {
		t.Fatalf("WALBytes = %d, want %d (record size changed? update the accounting tests)", st.WALBytes, want)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("data dir entries = %d, want 1 active segment", len(names))
	}
	info, err := names[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(walHeader + 5*recLen(testSeries)); info.Size() != want {
		t.Fatalf("segment size = %d, want %d", info.Size(), want)
	}
}

func TestCleanCloseReopensWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 64})
	fill(t, db, "cpu", 0, 300) // crosses chunk seals
	fill(t, db, "mem", 0, 40)  // head-only series
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Append("cpu", int64(1000*time.Second), 1) {
		t.Fatal("append after Close retained")
	}

	re := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 64})
	st := re.PersistStats()
	if st.SegmentsReplayed != 0 || st.RecordsReplayed != 0 {
		t.Fatalf("clean close still replayed: %+v", st)
	}
	if st.ChunksLoaded == 0 {
		t.Fatalf("no chunks loaded: %+v", st)
	}
	if got := countOf(t, re, "cpu"); got != 300 {
		t.Fatalf("cpu count = %d, want 300", got)
	}
	if got := countOf(t, re, "mem"); got != 40 {
		t.Fatalf("mem count = %d, want 40", got)
	}
	// Values survive byte-exact: the tail is the original ramp.
	tail := re.Tail("cpu", 3)
	if len(tail) != 3 || tail[2].V != 299 || tail[0].V != 297 {
		t.Fatalf("tail = %+v", tail)
	}
	// The store keeps accepting appends where it left off.
	if !re.Append("cpu", int64(301*time.Second), 301) {
		t.Fatal("append after reopen rejected")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKill9RecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 64})
	fill(t, db, "cpu", 0, 200)
	// No Close: the process is gone. Everything was fsynced per append
	// (the default cadence), so the WAL holds the whole history.
	re := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 64})
	st := re.PersistStats()
	if st.SegmentsReplayed == 0 {
		t.Fatalf("expected WAL replay: %+v", st)
	}
	if got := countOf(t, re, "cpu"); got != 200 {
		t.Fatalf("count = %d, want 200", got)
	}
	res, err := re.Query("cpu", tsdb.Query{Agg: tsdb.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if want := 199.0 / 2; res.Value != want {
		t.Fatalf("avg = %g, want %g", res.Value, want)
	}
}

// TestTornWriteRecoversDurablePrefix is the acceptance scenario: a torn
// final record injected at randomized byte offsets, then a reopen that
// must answer a windowed p99 over exactly the durably-written prefix —
// zero corrupt-record panics, tear surfaced in PersistStats.
func TestTornWriteRecoversDurablePrefix(t *testing.T) {
	const appends = 120
	rl := recLen(testSeries)
	// Deterministic spread of tear offsets: record boundaries, mid-record,
	// mid-header of a record, inside the segment header.
	offsets := []int{
		walHeader + 40*rl,      // exactly at a record boundary
		walHeader + 40*rl + 1,  // one byte into the length prefix
		walHeader + 40*rl + 11, // inside the payload
		walHeader + 77*rl + 26, // last byte of a record
		walHeader - 2,          // inside the segment header itself
	}
	for _, tear := range offsets {
		dir := t.TempDir()
		disk := faultnet.NewDisk(nil)
		disk.TearWriteAt("wal-", tear)
		db := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})

		ts := int64(0)
		for i := 0; i < appends; i++ {
			db.Append(testSeries, ts, float64(i)) // still retained in memory post-tear
			ts += int64(time.Second)
		}
		if disk.Stats().WritesTorn != 1 {
			t.Fatalf("tear at %d: WritesTorn = %d", tear, disk.Stats().WritesTorn)
		}
		if db.PersistStats().WALErrors == 0 {
			t.Fatalf("tear at %d: no WALErrors surfaced", tear)
		}

		durable := (tear - walHeader) / rl
		if durable < 0 {
			durable = 0
		}
		re := mustOpen(t, tsdb.Options{DataDir: dir})
		if got := countOf(t, re, testSeries); got != durable {
			t.Fatalf("tear at %d: recovered %d samples, want %d", tear, got, durable)
		}
		st := re.PersistStats()
		if torn := (tear-walHeader)%rl != 0; torn && st.RecordsTruncated == 0 {
			t.Fatalf("tear at %d: truncation not surfaced: %+v", tear, st)
		}
		if durable > 0 {
			res, err := re.Query(testSeries, tsdb.Query{Agg: tsdb.AggP99})
			if err != nil {
				t.Fatalf("tear at %d: p99: %v", tear, err)
			}
			// The bucket bound alone is shared by neighbouring prefixes, so
			// the count tells them apart.
			if want := tsdb.BucketBound(exactQuantile(ramp(durable), 0.99)); res.Value != want || res.Count != int64(durable) {
				t.Fatalf("tear at %d: p99 = %g over %d samples, want %g over %d durable samples", tear, res.Value, res.Count, want, durable)
			}
		}
		// The recovered store is live: the next append (past the durable
		// prefix) is accepted and a further reopen sees it.
		if !re.Append(testSeries, ts, 1e6) {
			t.Fatalf("tear at %d: append after recovery rejected", tear)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("tear at %d: close: %v", tear, err)
		}
	}
}

func ramp(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return vals
}

// exactQuantile is the ceil(q*n)-th order statistic, the one whose bucket
// bound a percentile query answers.
func exactQuantile(vals []float64, q float64) float64 {
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

func TestShortReadTruncatesChunkLoad(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 32})
	fill(t, db, testSeries, 0, 200) // seals several chunks
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	disk := faultnet.NewDisk(nil)
	disk.ShortReads("chunks-", 900) // lose the tail of the chunk file
	re := mustOpen(t, tsdb.Options{DataDir: dir, ChunkSize: 32, FS: disk})
	st := re.PersistStats()
	if st.RecordsTruncated == 0 {
		t.Fatalf("short read not surfaced: %+v", st)
	}
	got := countOf(t, re, testSeries)
	if got <= 0 || got >= 200 {
		t.Fatalf("recovered %d samples, want a proper prefix", got)
	}
	if got%32 != 0 {
		t.Fatalf("recovered %d, want whole chunks (multiple of 32)", got)
	}
	// The prefix is intact data, not garbage.
	tail := re.Tail(testSeries, 1)
	if len(tail) != 1 || tail[0].V != float64(got-1) {
		t.Fatalf("tail after short read = %+v, want value %d", tail, got-1)
	}
}

func TestNoSpaceDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	disk := faultnet.NewDisk(nil)
	budget := walHeader + 10*recLen(testSeries) + 7 // 10 full records + a torn 11th
	disk.LimitSpace(budget)
	db := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})
	for i := 0; i < 50; i++ {
		if !db.Append(testSeries, int64(i)*int64(time.Second), float64(i)) {
			t.Fatalf("append %d rejected — ENOSPC must not drop live data", i)
		}
	}
	if got := countOf(t, db, testSeries); got != 50 {
		t.Fatalf("in-memory count = %d, want 50", got)
	}
	if st := db.PersistStats(); st.WALErrors == 0 {
		t.Fatalf("ENOSPC not surfaced: %+v", st)
	}

	re := mustOpen(t, tsdb.Options{DataDir: dir})
	if got := countOf(t, re, testSeries); got != 10 {
		t.Fatalf("recovered %d samples, want the 10 that fit", got)
	}
}

func TestFailedFsyncIsCountedNotFatal(t *testing.T) {
	dir := t.TempDir()
	disk := faultnet.NewDisk(nil)
	disk.FailSyncs(true)
	db := mustOpen(t, tsdb.Options{DataDir: dir, FS: disk})
	fill(t, db, testSeries, 0, 20)
	if st := db.PersistStats(); st.WALErrors == 0 {
		t.Fatalf("failed fsync not surfaced: %+v", st)
	}
	if got := countOf(t, db, testSeries); got != 20 {
		t.Fatalf("count = %d, want 20", got)
	}
}

// TestRestartThenDownsampleTierBoundary pins the satellite case: a crash
// and recovery in the middle of a downsample bucket, further appends, then
// a tier query that must match a store that never crashed.
func TestRestartThenDownsampleTierBoundary(t *testing.T) {
	tiers := []tsdb.TierSpec{{Interval: 10 * time.Second}}
	opts := func(dir string) tsdb.Options {
		return tsdb.Options{DataDir: dir, ChunkSize: 16, Tiers: tiers}
	}
	control := tsdb.NewDB(tsdb.Options{ChunkSize: 16, Tiers: tiers})

	dir := t.TempDir()
	db := mustOpen(t, opts(dir))
	// 35 samples at 1s spacing: the crash lands mid-bucket [30s, 40s).
	for i := 0; i < 35; i++ {
		ts := int64(i) * int64(time.Second)
		db.Append("cpu", ts, float64(i))
		control.Append("cpu", ts, float64(i))
	}
	// kill -9: no Close.
	re := mustOpen(t, opts(dir))
	for i := 35; i < 60; i++ {
		ts := int64(i) * int64(time.Second)
		if !re.Append("cpu", ts, float64(i)) {
			t.Fatalf("post-restart append %d rejected", i)
		}
		control.Append("cpu", ts, float64(i))
	}
	for _, agg := range []tsdb.Agg{tsdb.AggAvg, tsdb.AggMax, tsdb.AggCount, tsdb.AggSum} {
		q := tsdb.Query{Agg: agg, From: 0, To: int64(60 * time.Second), Res: 10 * time.Second}
		got, err := re.Query("cpu", q)
		if err != nil {
			t.Fatalf("%s: %v", agg, err)
		}
		want, err := control.Query("cpu", q)
		if err != nil {
			t.Fatalf("%s control: %v", agg, err)
		}
		if got.Value != want.Value || got.Count != want.Count {
			t.Fatalf("%s @10s after restart = %+v, control %+v", agg, got, want)
		}
	}
}

// TestRetentionEvictsSegmentsAndChunkFiles runs 2000 s of history through a
// 20 s retention, alone and beside a series that wrote 40 samples and
// stopped. The quiet series' retention horizon never moves, so the files with
// its chunks are rightly kept — and, while files were deleted oldest-first,
// so was every chunk file sealed after them.
func TestRetentionEvictsSegmentsAndChunkFiles(t *testing.T) {
	for _, quiet := range []bool{false, true} {
		dir := t.TempDir()
		opts := tsdb.Options{
			DataDir:         dir,
			ChunkSize:       16,
			Retention:       20 * time.Second,
			WALSegmentBytes: 512,
			ChunkFileBytes:  1024,
			FsyncEvery:      8,
		}
		db := mustOpen(t, opts)
		if quiet {
			fill(t, db, "quiet", 0, 40)
		}
		fill(t, db, testSeries, 0, 2000) // 2000s of 1s samples, 20s retained
		st := db.PersistStats()
		if st.SegmentsDeleted == 0 {
			t.Fatalf("quiet=%v: no WAL segments retired: %+v", quiet, st)
		}
		if st.ChunkFilesDeleted == 0 {
			t.Fatalf("quiet=%v: no chunk files retired of %d sealed: %+v", quiet, st.ChunkFilesSealed, st)
		}
		// The on-disk footprint is bounded: far fewer files than the ~120
		// segments and ~14 chunk files the run produced.
		if n := len(dirImage(t, dir)); n > 20 {
			t.Fatalf("quiet=%v: data dir holds %d files; retention is not deleting", quiet, n)
		}
		// Only the active chunk file, the newest sealed one (still inside the
		// busy series' 20 s) and the one with the quiet series' two full
		// chunks may remain (its head stays in the one WAL segment it strands).
		held := 2
		if quiet {
			held++
		}
		if n := filesOnDisk(t, dir, "chunks-"); n > held {
			t.Fatalf("quiet=%v: %d chunk files on disk of %d sealed, want at most %d", quiet, n, st.ChunkFilesSealed, held)
		}
		want := map[string][]tsdb.Point{testSeries: db.Tail(testSeries, 0)}
		if quiet {
			want["quiet"] = db.Tail("quiet", 0)
			if n := len(want["quiet"]); n == 0 || want["quiet"][n-1].V != 39 {
				t.Fatalf("the quiet series holds %d samples in memory", n)
			}
		}
		crashed := t.TempDir() // kill -9: the directory as it is now
		for name, buf := range dirImage(t, dir) {
			if err := os.WriteFile(filepath.Join(crashed, name), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		var re *tsdb.DB
		for _, d := range []string{crashed, dir} {
			opts.DataDir = d
			re = mustOpen(t, opts)
			for name, pts := range want {
				if got := re.Tail(name, 0); !reflect.DeepEqual(got, pts) {
					t.Fatalf("quiet=%v: %s reopened with %d samples, want the %d retained", quiet, name, len(got), len(pts))
				}
			}
		}
		got := countOf(t, re, testSeries)
		// In-memory retention keeps whole chunks covering the last 20s.
		if got < 20 || got > 64 {
			t.Fatalf("quiet=%v: recovered %d samples, want a retention-bounded tail", quiet, got)
		}
		tail := re.Tail(testSeries, 1)
		if len(tail) != 1 || tail[0].V != 1999 {
			t.Fatalf("quiet=%v: newest sample = %+v, want 1999", quiet, tail)
		}
		if !quiet {
			continue
		}
		// Forgetting the quiet series releases its files on the next retire.
		before := filesOnDisk(t, dir, "chunks-")
		re.DropPrefix("qui")
		if err := re.Flush(); err != nil {
			t.Fatal(err)
		}
		if after := filesOnDisk(t, dir, "chunks-"); after > 2 || after >= before {
			t.Fatalf("%d chunk files on disk after dropping the quiet series, %d before", after, before)
		}
	}
}

// TestFlushSealsActiveSegment: at a negative cadence nothing is synced on
// its own — not at a size rotation either — and Flush syncs the segment it
// seals and every one a rotation left unsynced, so a power cut after it
// loses nothing.
func TestFlushSealsActiveSegment(t *testing.T) {
	for _, tc := range []struct {
		segmentBytes int
		rotations    uint64 // size rotations before the Flush
	}{{0, 0}, {256, 4}} {
		dir := t.TempDir()
		disk := faultnet.NewDisk(nil)
		opts := tsdb.Options{DataDir: dir, FsyncEvery: -1, WALSegmentBytes: tc.segmentBytes, FS: disk}
		db := mustOpen(t, opts)
		fill(t, db, testSeries, 0, 40)
		if st := db.PersistStats(); st.Fsyncs != 0 || st.SegmentsSealed != tc.rotations {
			t.Fatalf("%+v: %d fsyncs and %d rotations before flush, want 0 and %d", tc, st.Fsyncs, st.SegmentsSealed, tc.rotations)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := db.PersistStats(); st.Fsyncs != tc.rotations+1 || st.SegmentsSealed != tc.rotations+1 {
			t.Fatalf("%+v: flush did not sync every segment once: %+v", tc, st)
		}
		// kill -9 after flush: every segment replays in full.
		opts.FS = nil
		if got := countOf(t, mustOpen(t, opts), testSeries); got != 40 {
			t.Fatalf("%+v: kill -9 recovered %d, want 40", tc, got)
		}
		// Power cut after flush: every segment is on the device.
		if err := disk.PowerCut(); err != nil {
			t.Fatal(err)
		}
		if got := countOf(t, mustOpen(t, opts), testSeries); got != 40 {
			t.Fatalf("%+v: power cut after flush recovered %d, want 40", tc, got)
		}
	}
}

// TestPowerCutAfterWALRetirement: a WAL segment is deleted once the chunks
// its samples sealed into are persisted — and at a cadence those chunk
// records must be on the device by then, although the chunk file they sit in
// is nowhere near its rotation size, or its rotation's fsync failed. Every
// acknowledged sample survives a power cut. At a negative cadence nothing is
// acknowledged as synced until Flush or Close, which must then cover the
// chunk files that rotated at their size unsynced.
func TestPowerCutAfterWALRetirement(t *testing.T) {
	const n = 200
	for _, tc := range []struct {
		name           string
		fsyncEvery     int
		chunkFileBytes int
		failFrom       int                     // appends from here to failTo run with every fsync failing
		failTo         int                     //
		end            func(db *tsdb.DB) error // before the power cut
	}{
		{name: "cadence 1", fsyncEvery: 1, chunkFileBytes: 1 << 20},
		// Five chunk records to a file: a rotation falls inside the window,
		// its fsync fails, and so do those of the WAL (acknowledged as
		// unsynced, WALErrors) — the samples before the window were not.
		{name: "cadence 1, a rotation's fsync fails", fsyncEvery: 1, chunkFileBytes: 512, failFrom: 60, failTo: 100},
		{name: "cadence -1, Flush", fsyncEvery: -1, chunkFileBytes: 512, end: (*tsdb.DB).Flush},
		{name: "cadence -1, Close", fsyncEvery: -1, chunkFileBytes: 512, end: (*tsdb.DB).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			disk := faultnet.NewDisk(nil)
			opts := tsdb.Options{DataDir: dir, FsyncEvery: tc.fsyncEvery, ChunkSize: 8, WALSegmentBytes: 256, ChunkFileBytes: tc.chunkFileBytes, FS: disk}
			db := mustOpen(t, opts)
			for i := 0; i < n; i++ {
				disk.FailSyncs(i >= tc.failFrom && i < tc.failTo)
				if !db.Append(testSeries, int64(i)*int64(time.Second), float64(i)) {
					t.Fatalf("append %d rejected", i)
				}
			}
			disk.FailSyncs(false)
			st := db.PersistStats()
			if st.SegmentsDeleted < 5 {
				t.Fatalf("want many segments retired: %+v", st)
			}
			if (tc.chunkFileBytes < 1<<20) != (st.ChunkFilesSealed > 0) || (tc.failTo > 0) != (st.WALErrors > 0) {
				t.Fatalf("chunk-file rotations or errors not as set up: %+v", st)
			}
			if tc.end != nil {
				if err := tc.end(db); err != nil {
					t.Fatal(err)
				}
			}
			if err := disk.PowerCut(); err != nil {
				t.Fatal(err)
			}
			opts.FS = nil
			re := mustOpen(t, opts)
			got := map[int64]bool{}
			for _, p := range re.Tail(testSeries, 2*n) {
				got[p.T] = true
			}
			for i := 0; i < n; i++ {
				if !got[int64(i)*int64(time.Second)] && (i < tc.failFrom || tc.failTo == 0) {
					t.Fatalf("sample %d lost to a power cut (%d of %d recovered)", i, len(got), n)
				}
			}
		})
	}
}

// TestPersistenceAddsNoSteadyStateAllocs pins the PR 4 discipline on the
// write path: the WAL stages batches in a reused buffer and keeps its
// bookkeeping on the series, so a durable store allocates no more per
// append than the memory-only store (whose only allocations are the
// amortized chunk-buffer growth both share) — one sample at a time, and a
// report's worth of series per batch with the default tiers full.
func TestPersistenceAddsNoSteadyStateAllocs(t *testing.T) {
	const warm = 2000
	step := int64(time.Second)
	single := func(db *tsdb.DB) float64 {
		ts := int64(0)
		for i := 0; i < warm; i++ {
			db.Append(testSeries, ts, 1.5)
			ts += step
		}
		return testing.AllocsPerRun(2000, func() {
			db.Append(testSeries, ts, 1.5)
			ts += step
		})
	}
	mem := single(tsdb.NewDB(tsdb.Options{}))
	durable := single(mustOpen(t, tsdb.Options{DataDir: t.TempDir(), FsyncEvery: 64}))
	if durable > mem+0.01 {
		t.Fatalf("durable append allocates: %.3f allocs/op vs %.3f memory-only", durable, mem)
	}

	// Batches of 20 series. The retention is short so that both tiers fill
	// and wrap inside the warm-up; every batch closes buckets, and sealed
	// chunks are evicted as fast as they are made.
	const width = 20
	tiers := tsdb.DefaultTiers(10 * time.Second)
	batched := func(db *tsdb.DB) float64 {
		batch := reportBatch(db, width, 0, 1.5)
		ts := int64(0)
		round := func() {
			ts += step
			for i := range batch {
				batch[i].T = ts
			}
			db.AppendBatch(batch)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		// AllocsPerRun rounds down to whole allocations per run: count over
		// one run of many batches to see fractions.
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < 2000; i++ {
				round()
			}
		}) / 2000
	}
	mem = batched(tsdb.NewDB(tsdb.Options{Retention: 10 * time.Second, Tiers: tiers}))
	durable = batched(mustOpen(t, tsdb.Options{
		DataDir: t.TempDir(), FsyncEvery: -1, Retention: 10 * time.Second, Tiers: tiers,
	}))
	// Memory-only, a batch allocates only where a head seals (a chunk and
	// its buffer per 256 samples per series); a durable one adds a pin list
	// per WAL segment and nothing per sample.
	t.Logf("allocs per batch of %d: memory-only %.3f, durable %.3f", width, mem, durable)
	if mem > 2.0*width/256+0.01 {
		t.Fatalf("memory-only batch of %d allocates %.3f times: something besides chunk seals", width, mem)
	}
	if durable > mem+0.05 {
		t.Fatalf("durable batch allocates: %.3f allocs/op vs %.3f memory-only", durable, mem)
	}
}

// TestReplayAllocatesPerSeriesNotPerRecord pins what a WAL replay allocates:
// the series it creates and the heads it seals (a chunk, its buffer, the
// chunk record's pin) plus a buffer per segment read — nothing per record.
// The writer seals nothing, so all 80 000 records replay, and the reader's
// chunk size seals 15 heads per series on the way.
func TestReplayAllocatesPerSeriesNotPerRecord(t *testing.T) {
	const width, rounds = 20, 4000
	opts := tsdb.Options{DataDir: t.TempDir(), FsyncEvery: -1, ChunkSize: 1 << 20}
	db := mustOpen(t, opts)
	batch := reportBatch(db, width, 0, 0)
	for r := 1; r <= rounds; r++ {
		for i := range batch {
			batch[i].T, batch[i].V = int64(r)*int64(time.Second), float64(r%7+i)
		}
		db.AppendBatch(batch)
	}
	opts.ChunkSize = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	re := mustOpen(t, opts)
	runtime.ReadMemStats(&after)
	st := re.PersistStats()
	if st.RecordsReplayed != width*rounds || st.ChunksPersisted != width*(rounds/256) {
		t.Fatalf("replayed %d records sealing %d heads, want %d and %d", st.RecordsReplayed, st.ChunksPersisted, width*rounds, width*(rounds/256))
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("replay of %d records: %d allocations (%.4f per record)", st.RecordsReplayed, allocs, float64(allocs)/float64(st.RecordsReplayed))
	if ceiling := 20*width + 4*st.ChunksPersisted + 8*st.SegmentsReplayed; allocs > ceiling {
		t.Fatalf("replay allocated %d times, ceiling %d (20 per series, 4 per seal, 8 per segment)", allocs, ceiling)
	}
}
