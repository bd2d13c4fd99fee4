// Concurrency hammer pinning the DB locking audit: appends (which evict),
// queries, tails, stats snapshots and flushes run concurrently against
// shared series while the race detector watches (`make check` runs this
// under -race). The assertions are deliberately weak — the test's job is
// to make any locking regression explode, not to check arithmetic.
package tsdb_test

import (
	"sync"
	"testing"
	"time"

	"dproc/internal/tsdb"
)

func TestConcurrentAppendQueryFlushRace(t *testing.T) {
	const perSeries = 3000
	series := []string{"n1/cpu", "n1/mem", "n2/cpu", "n2/mem"}
	run := func(t *testing.T, opts tsdb.Options) {
		db := mustOpen(t, opts)
		var wg sync.WaitGroup
		stop := make(chan struct{})

		for _, name := range series {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				step := int64(50 * time.Millisecond)
				for i := 0; i < perSeries; i++ {
					db.Append(name, int64(i)*step, float64(i))
				}
			}(name)
		}
		var readers sync.WaitGroup
		for i := 0; i < 4; i++ {
			readers.Add(1)
			go func(i int) {
				defer readers.Done()
				name := series[i%len(series)]
				for {
					select {
					case <-stop:
						return
					default:
					}
					db.Query(name, tsdb.Query{Agg: tsdb.AggAvg, Last: time.Second})
					db.Query(name, tsdb.Query{Agg: tsdb.AggMax, Res: 10 * time.Second})
					db.Tail(name, 32)
					db.Stats()
					db.PersistStats()
					// Unthrottled readers starve the appenders under the race
					// detector; a short breath keeps the interleavings varied
					// without turning the test into a multi-minute spin.
					time.Sleep(100 * time.Microsecond)
				}
			}(i)
		}
		if db.Persistent() {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.Flush(); err != nil {
						t.Error(err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		wg.Wait()
		close(stop)
		readers.Wait()

		st := db.Stats()
		if st.Series != len(series) {
			t.Fatalf("series = %d, want %d", st.Series, len(series))
		}
		for _, name := range series {
			tail := db.Tail(name, 1)
			if len(tail) != 1 || tail[0].V != perSeries-1 {
				t.Fatalf("%s newest = %+v, want %d", name, tail, perSeries-1)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	base := tsdb.Options{
		ChunkSize: 32,
		Retention: 500 * time.Millisecond,
		Tiers:     tsdb.DefaultTiers(500 * time.Millisecond),
	}
	t.Run("memory", func(t *testing.T) {
		opts := base
		run(t, opts)
	})
	t.Run("durable", func(t *testing.T) {
		opts := base
		opts.DataDir = t.TempDir()
		opts.FsyncEvery = -1 // Flush goroutine provides the durability beats
		opts.WALSegmentBytes = 16 << 10
		opts.ChunkFileBytes = 64 << 10
		run(t, opts)
	})
}
