package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/query"
	"dproc/internal/registry"
)

// history-rw: four registry-joined nodes with durable history and an admin
// server each; the monitoring channels stay idle. One goroutine ingests
// reports straight into every node's store while another issues cluster
// queries against node 0 — writes beside reads on the same tsdb lock.

const (
	historyNodes   = 4
	historyOrigins = 16 // origin 0 is the node itself; the rest are synthetic peers
	// historyRetention is the raw retention. It is shorter than the default
	// hour so that chunk eviction, not only chunk sealing, is running well
	// inside the warm-up; it leaves ten virtual minutes between the widest
	// query window and the eviction horizon.
	historyRetention = 15 * time.Minute
)

// The two cluster queries, alternated. Both read series that every node
// writes under its own name, so every part has data.
var historyQueries = []struct {
	text   string
	metric metrics.ID
	window uint64 // virtual seconds = samples per node in a full window
}{
	{"p99 loadavg last 5m", metrics.LOADAVG, 300},
	{"avg freemem last 1m", metrics.FREEMEM, 60},
}

func historyNodeName(i int) string { return fmt.Sprintf("n%d", i) }

// sampleValue is the generator's reference: the value of (node, origin,
// metric) in round r is a pure function of the seed, so any window's
// aggregate can be recomputed without remembering what was ingested.
func sampleValue(seed int64, node, origin int, id metrics.ID, round uint64) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(node)<<56 ^ uint64(origin)<<48 ^ uint64(id)<<40 ^ round
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	switch id {
	case metrics.LOADAVG:
		return 0.25 + 7.75*u*u // skewed, so p99 is not just "the top of a flat range"
	case metrics.FREEMEM:
		return math.Floor(32e6 + 400e6*u)
	}
	return math.Floor(1 + 1e4*u)
}

type historyCluster struct {
	seed    int64
	dir     string
	reg     *registry.Server
	clk     *clock.Virtual
	nodes   []*core.Node
	servers []*adminproto.Server
	// reports[node][origin] are reused every round: Store.Update copies
	// what it keeps.
	reports [][]*metrics.Report
	round   uint64 // rounds ingested; the ingester goroutine owns it

	startTimes []time.Duration
	ingested   atomic.Uint64 // samples handed to Store.Update
	tr         *tracer
}

// formHistory starts the cluster on fresh data directories under dir and
// proves one verified round trip: a round ingested on every node, then a
// cluster query whose merged answer matches the reference.
func formHistory(seed int64, dir string, nodes, traceEvery int, tr *tracer) (hc *historyCluster, err error) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hc = &historyCluster{seed: seed, dir: dir, reg: reg, clk: clock.NewVirtual(clock.Epoch), tr: tr}
	defer func() {
		if err != nil {
			hc.close()
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		return hc, err
	}
	for i := 0; i < nodes; i++ {
		cfg := core.Defaults()
		cfg.Name = historyNodeName(i)
		cfg.RegistryAddr = reg.Addr()
		cfg.Clock = hc.clk
		cfg.Source = busyHost(cfg.Name, seed+int64(i))
		cfg.DataDir = filepath.Join(dir, cfg.Name)
		// WAL framing, CRC, rotation and chunk persistence all run; the
		// device flush, which a shared sandbox cannot measure, stays out.
		cfg.FsyncEvery = -1
		cfg.HistoryRetention = historyRetention
		cfg.TraceSample = traceEvery
		// The channels are idle, and their supervisor would pace itself on
		// the virtual clock this workload advances thousands of times a
		// second.
		cfg.Channel.DisableReconnect = true
		t0 := time.Now()
		n, err := core.NewNode(cfg)
		if err != nil {
			return hc, err
		}
		srv, err := adminproto.NewServer(n, "127.0.0.1:0")
		hc.startTimes = append(hc.startTimes, time.Since(t0))
		hc.nodes = append(hc.nodes, n)
		if err != nil {
			return hc, err
		}
		hc.servers = append(hc.servers, srv)
	}
	for i := range hc.nodes {
		var per []*metrics.Report
		for o := 0; o < historyOrigins; o++ {
			origin := historyNodeName(i)
			if o > 0 {
				origin = fmt.Sprintf("%s-peer%02d", origin, o)
			}
			r := &metrics.Report{Node: origin, Samples: make([]metrics.Sample, metrics.NumIDs)}
			for id := range r.Samples {
				r.Samples[id].ID = metrics.ID(id)
			}
			per = append(per, r)
		}
		hc.reports = append(hc.reports, per)
	}
	hc.ingestRound()
	q := &querier{hc: hc, client: adminproto.NewClient(hc.servers[0].Addr())}
	if err := q.once(0); err != nil {
		return hc, fmt.Errorf("first query: %w", err)
	}
	return hc, nil
}

// ingestRound hands every node one report per origin, stamped one virtual
// second after the previous round, and only then advances the shared clock
// to that second. A cluster query anchors its window at the clock, so every
// sample a window can include is already in every store: the reference
// count is exact even though ingest never pauses for queries.
func (hc *historyCluster) ingestRound() {
	hc.round++
	t := clock.Epoch.Add(time.Duration(hc.round) * time.Second)
	for i, n := range hc.nodes {
		store := n.DMon().Store()
		for o, r := range hc.reports[i] {
			r.Seq, r.Time = hc.round, t
			for id := range r.Samples {
				s := &r.Samples[id]
				s.LastSent, s.Value, s.Time = s.Value, sampleValue(hc.seed, i, o, s.ID, hc.round), t
			}
			if hc.tr != nil {
				t0 := time.Now()
				store.Update(r)
				t1 := time.Now()
				hc.tr.record("dmon.store_update", 0, hc.round, n.Name(), int64(t0.Sub(hc.tr.epoch)), int64(t1.Sub(hc.tr.epoch)))
			} else {
				store.Update(r)
			}
		}
	}
	hc.clk.AdvanceTo(t)
	hc.ingested.Add(uint64(len(hc.nodes) * historyOrigins * int(metrics.NumIDs)))
}

// idle: nothing of this cluster spins while idle; drive parks its own two
// goroutines around the reference.
func (hc *historyCluster) idle(bool) {}

func (hc *historyCluster) close() {
	for _, s := range hc.servers {
		_ = s.Close()
	}
	for _, n := range hc.nodes {
		_ = n.Close()
	}
	_ = hc.reg.Close()
	_ = os.RemoveAll(hc.dir)
}

// querier issues cluster queries closed loop and checks every answer.
type querier struct {
	hc       *historyCluster
	client   *adminproto.Client
	n        uint64 // queries attempted
	failed   uint64
	latency  []int64
	firstErr error
}

// once runs query number k and verifies the merged answer.
func (q *querier) once(k uint64) error {
	spec := historyQueries[k%uint64(len(historyQueries))]
	t0 := time.Now()
	out, err := q.client.QueryAll(spec.text)
	t1 := time.Now()
	q.n++
	q.latency = append(q.latency, int64(t1.Sub(t0)))
	if tr := q.hc.tr; tr != nil {
		tr.record("adminproto.queryall", 0, k, historyNodeName(0), int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
	}
	if err == nil {
		err = q.verify(out, spec.metric, spec.window)
	}
	if err != nil {
		q.failed++
		if q.firstErr == nil {
			q.firstErr = fmt.Errorf("query %d (%s): %w", k, spec.text, err)
		}
	}
	return err
}

// verify checks a rendered cluster result: every node answered, nothing is
// partial, the sample count is exactly what the window holds, and the value
// matches the generator's reference — averages to rounding, percentiles to
// within one histogram bucket (the merge's stated resolution).
func (q *querier) verify(out string, id metrics.ID, window uint64) error {
	f := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k != "node" {
			f[k] = v
		}
	}
	if want := fmt.Sprintf("%d ok %d failed 0", len(q.hc.nodes), len(q.hc.nodes)); f["nodes"] != want {
		return fmt.Errorf("nodes %q, want %q", f["nodes"], want)
	}
	if f["partial"] != "false" {
		return errors.New("partial result")
	}
	to, err := strconv.ParseFloat(f["to"], 64)
	if err != nil {
		return fmt.Errorf("bad to %q", f["to"])
	}
	// The window ends one nanosecond after the clock reading it was
	// anchored at, which is a whole number of rounds after the epoch.
	last := uint64(math.Round(to - float64(clock.Epoch.Unix())))
	first := uint64(1)
	if last > window {
		first = last - window + 1
	}
	var ref []float64
	for i := 0; i < len(q.hc.nodes); i++ {
		for r := first; r <= last; r++ {
			ref = append(ref, sampleValue(q.hc.seed, i, 0, id, r))
		}
	}
	if got := f["samples"]; got != strconv.Itoa(len(ref)) {
		return fmt.Errorf("samples %s, want %d (rounds %d..%d)", got, len(ref), first, last)
	}
	value, err := strconv.ParseFloat(f["value"], 64)
	if err != nil {
		return fmt.Errorf("bad value %q", f["value"])
	}
	sort.Float64s(ref)
	bucket := func(v float64) int { return obs.BucketOf(int64(math.Round(v * query.ValueScale))) }
	switch f["agg"] {
	case "avg":
		var sum float64
		for _, v := range ref {
			sum += v
		}
		if want := sum / float64(len(ref)); math.Abs(value-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("avg %g, want %g", value, want)
		}
	case "p99":
		if want := percentile(ref, 0.99); abs(bucket(value)-bucket(want)) > 1 {
			return fmt.Errorf("p99 %g is more than one bucket from %g", value, want)
		}
	default:
		return fmt.Errorf("unexpected aggregate %q", f["agg"])
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// historyRun is what the two goroutines produced over the timed section.
type historyRun struct {
	s *slices
	q *querier
}

// drive runs ingester and querier side by side for warm-up plus the timed
// section, parking both between slices while the reference runs.
func (hc *historyCluster) drive(p runParams) (historyRun, error) {
	hr := historyRun{s: &slices{}}
	ref, err := newReference()
	if err != nil {
		return hr, err
	}
	defer ref.close()
	// Each worker holds the read side around one unit of work (a round, a
	// query); taking the write side parks both at their next boundary.
	var gate sync.RWMutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	q := &querier{hc: hc, client: adminproto.NewClient(hc.servers[0].Addr()), latency: make([]int64, 0, 1<<16)}
	hr.q = q
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			gate.RLock()
			hc.ingestRound()
			gate.RUnlock()
		}
	}()
	go func() {
		defer wg.Done()
		for k := uint64(1); !stop.Load(); k++ {
			gate.RLock()
			_ = q.once(k)
			gate.RUnlock()
		}
	}()
	time.Sleep(p.warmup)

	gate.Lock()
	in := sliceInput{ref1: ref.throughput(p.part(refBurst)), rtt1: ref.rtt(p.part(refRTTBurst))}
	for start := time.Now(); time.Since(start) < p.timed(); {
		// Ingest and queries run side by side, so one pair of reference
		// readings brackets both; each closing pair opens the next slice.
		in = sliceInput{ref0: in.ref1, rtt0: in.rtt1, before: readProc()}
		mark, n0 := hc.ingested.Load(), len(q.latency)
		gate.Unlock()
		time.Sleep(p.part(sliceSat + sliceProbe))
		gate.Lock()
		in.after = readProc()
		in.deliveries, in.elapsed = hc.ingested.Load()-mark, in.after.wall.Sub(in.before.wall)
		in.ref1, in.rtt1 = ref.throughput(p.part(refBurst)), ref.rtt(p.part(refRTTBurst))
		in.probe = q.latency[n0:]
		hr.s.add(in)
	}
	stop.Store(true)
	gate.Unlock()
	wg.Wait()
	return hr, nil
}

// reopenLast closes the last node and reopens its data directory, checking
// that recovery brings back the newest sample the generator wrote.
func (hc *historyCluster) reopenLast() (ms float64, err error) {
	i := len(hc.nodes) - 1
	name := hc.nodes[i].Name()
	if err := hc.servers[i].Close(); err != nil {
		return 0, err
	}
	if err := hc.nodes[i].Close(); err != nil {
		return 0, err
	}
	hc.servers, hc.nodes = hc.servers[:i], hc.nodes[:i]
	t0 := time.Now()
	store, err := dmon.OpenStore(dmon.StoreOptions{
		DataDir: filepath.Join(hc.dir, name), FsyncEvery: -1, Retention: historyRetention,
	})
	if err != nil {
		return 0, fmt.Errorf("reopen %s: %w", name, err)
	}
	ms = float64(time.Since(t0).Microseconds()) / 1e3
	defer store.Close()
	hist := store.History(name, metrics.LOADAVG, 1)
	want := sampleValue(hc.seed, i, 0, metrics.LOADAVG, hc.round)
	if len(hist) != 1 || hist[0].Value != want {
		return ms, fmt.Errorf("reopen %s: newest recovered loadavg %v, want %g (round %d)", name, hist, want, hc.round)
	}
	return ms, nil
}

// historyResult finishes a history-rw run's result: query failures,
// rejected samples, WAL errors, and the reopen check.
func (hc *historyCluster) historyResult(hr historyRun, err error) (*runResult, float64) {
	res := newResult()
	if err != nil {
		res.violate("%v", err)
	}
	hr.q.account(res)
	for _, n := range hc.nodes {
		st := n.DMon().Store()
		if d := st.TSDB().Stats().Dropped; d != 0 {
			res.violate("%s rejected %d samples", n.Name(), d)
		}
		if e := st.PersistStats().WALErrors; e != 0 {
			res.violate("%s had %d WAL errors", n.Name(), e)
		}
	}
	reopenMs, err := hc.reopenLast()
	if err != nil {
		res.violate("%v", err)
	}
	res.extra("history.rounds", float64(hc.round), "count")
	return res, reopenMs
}

// account fills the contract's attempted/failed: cluster queries issued, and
// those that failed, came back partial, or disagreed with the reference.
func (q *querier) account(res *runResult) {
	res.Attempted, res.Failed = int64(q.n), int64(q.failed)
	if q.firstErr != nil {
		res.violate("%d of %d queries failed; first: %v", q.failed, q.n, q.firstErr)
	}
}

func historyDir(p runParams) string {
	return filepath.Join(p.outDir, fmt.Sprintf("history-%d", os.Getpid()))
}

func runHistory(p runParams) (*runResult, error) {
	hc, setupS, err := formTimed(p.setups, func() (*historyCluster, error) {
		return formHistory(p.seed, historyDir(p), historyNodes, core.DefaultTraceSample, nil)
	})
	if err != nil {
		return nil, err
	}
	defer hc.close()
	hr, err := hc.drive(p)
	res, reopenMs := hc.historyResult(hr, err)
	endToEnd(res, hr.s, setupS)
	res.extra("tsdb.reopen_ms", reopenMs, "ms")
	return res, nil
}

func traceHistory(p runParams) (*runResult, error) {
	hc, err := formHistory(p.seed, historyDir(p), historyNodes, core.DefaultTraceSample, nil)
	if err != nil {
		return nil, err
	}
	hr, err := hc.drive(p.scaled(0.25))
	hc.close()
	if err != nil {
		return nil, err
	}
	untraced := median(hr.s.relRate)

	tr := newTracer("dmon.store_update")
	if hc, err = formHistory(p.seed, historyDir(p), historyNodes, traceSampleEvery, tr); err != nil {
		return nil, err
	}
	defer hc.close()
	hr, driveErr := hc.drive(p.scaled(0.5))
	ms, err := ladder(p.ladder(64))
	if err != nil {
		return nil, err
	}
	ms.set("core.node_start_ms", medianMs(hc.startTimes), "ms")
	if v := selfTimes(tr.spans())["dmon.store_update"]; len(v) > 0 {
		ms.set("dmon.store_update_ns", percentile(v, 0.50), "ns")
	}
	if err := historyLayer(ms, hc, p.ladder(64).budget); err != nil {
		return nil, err
	}
	res, reopenMs := hc.historyResult(hr, driveErr)
	ms.set("tsdb.reopen_ms", reopenMs, "ms")
	// What the in-process scatter-gather does not cover of an operator's
	// query: the admin client's own hop to the coordinator.
	return finishTrace(res, ms, hr.s, untraced, ms.us("query.run_ms"), tr, "history-rw", p)
}
