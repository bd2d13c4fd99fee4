package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/ecode"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/query"
	"dproc/internal/registry"
	"dproc/internal/tsdb"
	"dproc/internal/wire"
)

// The layer ladder: each layer's public functions timed alone, from outside,
// on inputs shaped like the workload's own (its payload size, its seed). It
// runs in every traced run, so every per-layer metric has a value on every
// workload; where a workload drives a layer directly, the figure measured in
// place replaces the ladder's (see layers.go).

// ladderParams is what a workload lends the ladder.
type ladderParams struct {
	seed    int64
	payload int           // bytes of a typical event on this workload
	dir     string        // scratch directory for durable stores
	budget  time.Duration // measuring time per rung
	rounds  int           // history rounds ingested before the query rungs
}

// timeOp measures f for about budget and returns the median, over batches,
// of ns per call. A batch is sized to take roughly a tenth of the budget.
func timeOp(budget time.Duration, f func()) float64 {
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		if d := time.Since(t0); d >= budget/10 || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var batches []float64
	for start := time.Now(); len(batches) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(t0))/float64(per))
	}
	return median(batches)
}

// discard is an io.Writer that keeps nothing.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// ladderWire times the codec in memory at the two event sizes the workloads
// carry. A "batch" is 16 records, a typical coalesced frame under load.
func ladderWire(ms metricSet, p ladderParams) {
	for _, sz := range []struct {
		tag  string
		size int
	}{{"64", 64}, {"5k", 5 << 10}} {
		pay := newPayloads(p.seed, sz.size)
		var views [][]byte
		for i := uint64(1); i <= 16; i++ {
			views = append(views, append([]byte(nil), pay.next(i)...))
		}
		var enc []byte
		ms.set("wire.encode_batch_ns_"+sz.tag, timeOp(p.budget, func() { enc = wire.AppendBatch(enc[:0], views) }), "ns")
		var dec [][]byte
		ms.set("wire.decode_batch_ns_"+sz.tag, timeOp(p.budget, func() { dec, _ = wire.DecodeBatchInto(dec[:0], enc) }), "ns")
		ms.set("wire.frame_write_ns_"+sz.tag, timeOp(p.budget, func() { _ = wire.WriteFrame(discard{}, 2, views[0]) }), "ns")

		const frames = 128
		var stream bytes.Buffer
		for i := 0; i < frames; i++ {
			_ = wire.WriteFrame(&stream, 2, views[i%len(views)])
		}
		raw := stream.Bytes()
		rd := bytes.NewReader(raw)
		ms.set("wire.frame_read_ns_"+sz.tag, timeOp(p.budget, func() {
			rd.Reset(raw)
			fr := wire.NewFrameReader(rd)
			for i := 0; i < frames; i++ {
				if _, _, err := fr.Next(); err != nil {
					panic("ladder: frame stream did not parse: " + err.Error())
				}
			}
		})/frames, "ns")
		ms.set("wire.parser_ns_"+sz.tag, timeOp(p.budget, func() {
			var ps wire.Parser
			for data := raw; len(data) > 0; {
				n, _, _, _, err := ps.Next(data)
				if err != nil {
					panic("ladder: frame stream did not parse: " + err.Error())
				}
				data = data[n:]
			}
		})/frames, "ns")
	}
}

// ladderOverlay times the tree derivation a supervisor pass performs.
func ladderOverlay(ms metricSet, p ladderParams) {
	topo := overlay.RelayTree{Branching: 2}
	for _, n := range []int{8, 1000} {
		roster := make([]registry.Member, n)
		for i := range roster {
			roster[i] = registry.Member{ID: fmt.Sprintf("m%04d", i), Role: overlay.RoleRelay}
		}
		self := roster[n/2].ID
		ms.set(fmt.Sprintf("overlay.neighbors_ns_%d", n), timeOp(p.budget, func() { _ = topo.Neighbors(self, roster) }), "ns")
	}
}

// ladderRegistry times the directory operations set-up and every supervisor
// round are made of, against a fresh server with eight members.
func ladderRegistry(ms metricSet, p ladderParams) error {
	srv, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli := registry.NewClient(srv.Addr())
	defer cli.Close()
	for i := 0; i < 8; i++ {
		if _, err := cli.Join("ladder", subID(i), "127.0.0.1:1"); err != nil {
			return err
		}
	}
	n := 0
	ms.set("registry.join_ms", timeOp(p.budget, func() {
		n++
		_, _ = cli.Join("ladder-join", fmt.Sprintf("j%d", n%64), "127.0.0.1:1")
	})/1e6, "ms")
	ms.set("registry.lookup_us", timeOp(p.budget, func() { _, _ = cli.Lookup("ladder") })/1e3, "us")
	return nil
}

// ladderNode times one stand-alone node's poll path stage by stage: the
// paper's Figure 3 filter on a seeded busy host, every resource due on
// every poll.
func ladderNode(ms metricSet, p ladderParams) error {
	var starts []float64
	var node *core.Node
	for i := 0; i < 3; i++ {
		if node != nil {
			_ = node.Close()
		}
		cfg := core.Defaults()
		cfg.Name = nodeA
		cfg.Source = busyHost(nodeA, p.seed)
		cfg.HistoryRetention = time.Second
		t0 := time.Now()
		var err error
		if node, err = core.NewNode(cfg); err != nil {
			return err
		}
		starts = append(starts, float64(time.Since(t0))/1e6)
	}
	defer node.Close()
	ms.set("core.node_start_ms", median(starts), "ms")
	d := node.DMon()
	if err := d.DeployFilter(0, true, fig3Filter); err != nil {
		return err
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := d.SetPeriod(r, time.Nanosecond); err != nil {
			return err
		}
	}

	var samples, send []metrics.Sample
	var collected, sent int
	ms.set("dmon.collect_ns", timeOp(p.budget, func() { samples = d.CollectDue(time.Now()) }), "ns")
	ms.set("dmon.filter_ns", timeOp(p.budget, func() {
		send = d.FilterSamples(time.Now(), samples)
		collected += len(samples)
		sent += len(send)
	}), "ns")
	if collected > 0 {
		ms.set("dmon.filter_pass_ratio", float64(sent)/float64(collected), "ratio")
	}
	var report *metrics.Report
	ms.set("dmon.build_report_ns", timeOp(p.budget, func() { report = d.BuildReport(time.Now(), send) }), "ns")
	if p.payload > 256 {
		// The workload carries large events; so does the report.
		report.Padding = make([]byte, p.payload)
	}
	step := int64(0)
	ms.set("dmon.store_update_ns", timeOp(p.budget, func() {
		step++
		t := report.Time.Add(time.Duration(step))
		for i := range report.Samples {
			report.Samples[i].Time = t
		}
		d.Store().Update(report)
	}), "ns")
	var enc []byte
	ms.set("metrics.encode_ns", timeOp(p.budget, func() { enc = report.Encode() }), "ns")
	ms.set("metrics.report_bytes", float64(len(enc)), "B")
	ms.set("metrics.decode_ns", timeOp(p.budget, func() {
		if _, err := metrics.DecodeReport(enc); err != nil {
			panic("ladder: report did not decode: " + err.Error())
		}
	}), "ns")

	filter, err := ecode.CompileCached(fig3Filter, dmon.FilterSpec())
	if err != nil {
		return err
	}
	ms.set("ecode.compile_cached_ns", timeOp(p.budget, func() { _, _ = ecode.CompileCached(fig3Filter, dmon.FilterSpec()) }), "ns")
	env := filter.NewEnv(int(metrics.NumIDs))
	env.Input = make([]ecode.Record, metrics.NumIDs)
	for _, s := range samples {
		env.Input[s.ID] = ecode.Record{ID: int64(s.ID), Value: s.Value, LastSent: s.LastSent}
	}
	vm := ecode.NewVM()
	ms.set("ecode.run_ns", timeOp(p.budget, func() {
		env.Reset()
		if _, err := filter.Run(vm, env); err != nil {
			panic("ladder: filter failed: " + err.Error())
		}
	}), "ns")

	ms.set("core.poll_once_ns", timeOp(p.budget, func() { _, _, _ = node.PollOnce() }), "ns")
	// The node's own observer timed every filter run the rungs above made.
	obsLayer(ms, []*obs.Observer{node.Observer()})
	ms.set("core.refresh_ns", timeOp(p.budget, node.Refresh), "ns")
	return nil
}

// ladderTSDB times the history store's write and read paths directly.
func ladderTSDB(ms metricSet, p ladderParams) error {
	mem := tsdb.NewDB(tsdb.Options{Retention: historyRetention, Tiers: tsdb.DefaultTiers(historyRetention)})
	dir := filepath.Join(p.dir, fmt.Sprintf("ladder-tsdb-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	dur, err := tsdb.Open(tsdb.Options{Retention: historyRetention, Tiers: tsdb.DefaultTiers(historyRetention), DataDir: dir, FsyncEvery: -1})
	if err != nil {
		return err
	}
	defer dur.Close()
	const series = 64
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("n0/ladder%02d", i)
	}
	appendTo := func(db *tsdb.DB) func() {
		round := uint64(0)
		return func() {
			round++
			t := int64(round) * int64(time.Second)
			for i, name := range names {
				db.Append(name, t, sampleValue(p.seed, 0, i, metrics.LOADAVG, round))
			}
		}
	}
	ms.set("tsdb.append_ns", timeOp(p.budget, appendTo(mem))/series, "ns")
	ms.set("tsdb.wal_append_ns", timeOp(p.budget, appendTo(dur))/series, "ns")
	q, err := tsdb.ParseQuery("avg ladder00 last 1m")
	if err != nil {
		return err
	}
	ms.set("tsdb.query_ns", timeOp(p.budget, func() { _, _ = dur.Query(names[0], q) }), "ns")
	return nil
}

// historyLayer reads the history stack's counters off a cluster that has
// ingested, and times its query path hop by hop against node 0: the whole
// scatter-gather in process, one part over the admin protocol, one part
// computed locally, and a plain file read over the admin protocol.
func historyLayer(ms metricSet, hc *historyCluster, budget time.Duration) error {
	var ps tsdb.PersistStats
	var st tsdb.Stats
	for _, n := range hc.nodes {
		s := n.DMon().Store()
		x, y := s.PersistStats(), s.TSDB().Stats()
		ps.WALAppends += x.WALAppends
		ps.WALBytes += x.WALBytes
		ps.WALErrors += x.WALErrors
		ps.Fsyncs += x.Fsyncs
		ps.ChunksPersisted += x.ChunksPersisted
		st.Series += y.Series
		st.Samples += y.Samples
		st.Bytes += y.Bytes
		st.Dropped += y.Dropped
	}
	if ps.WALAppends > 0 {
		ms.set("tsdb.wal_bytes_per_sample", float64(ps.WALBytes)/float64(ps.WALAppends), "B")
		ms.set("tsdb.rejected_ratio", float64(st.Dropped)/float64(ps.WALAppends+st.Dropped), "ratio")
	}
	if st.Samples > 0 {
		ms.set("tsdb.bytes_per_sample", float64(st.Bytes)/float64(st.Samples), "B")
	}
	ms.set("tsdb.chunks_persisted", float64(ps.ChunksPersisted), "count")
	ms.set("tsdb.fsyncs", float64(ps.Fsyncs), "count")
	ms.set("tsdb.wal_errors", float64(ps.WALErrors), "count")
	ms.set("tsdb.series", float64(st.Series), "count")

	text := historyQueries[0].text
	var okNodes, nodes int
	ms.set("query.run_ms", timeOp(budget, func() {
		res, err := hc.servers[0].QueryAllResult(text)
		if err == nil {
			okNodes += res.OK
			nodes += len(res.Nodes)
		}
	})/1e6, "ms")
	if nodes == 0 {
		return fmt.Errorf("ladder: cluster query %q failed", text)
	}
	ms.set("query.nodes_ok_ratio", float64(okNodes)/float64(nodes), "ratio")
	parsed, err := tsdb.ParseQuery(text)
	if err != nil {
		return err
	}
	nq, err := query.Normalize(parsed, hc.clk.Now())
	if err != nil {
		return err
	}
	db := hc.nodes[0].DMon().Store().TSDB()
	series := dmon.SeriesKey(hc.nodes[0].Name(), nq.Metric)
	ms.set("query.compute_part_us", timeOp(budget, func() { _, _ = query.ComputePart(db, series, nq) })/1e3, "us")
	cli := adminproto.NewClient(hc.servers[0].Addr())
	ms.set("adminproto.querypart_rtt_us", timeOp(budget, func() { _, _ = cli.QueryPart(nq) })/1e3, "us")
	path := "cluster/" + hc.nodes[0].Name() + "/loadavg"
	if _, err := cli.Cat(path); err != nil {
		return fmt.Errorf("ladder: cat %s: %w", path, err)
	}
	ms.set("adminproto.cat_rtt_us", timeOp(budget, func() { _, _ = cli.Cat(path) })/1e3, "us")
	return nil
}

// ladderHistory runs historyLayer on a two-node cluster of its own, for the
// workloads that have no history stack to measure in place.
func ladderHistory(ms metricSet, p ladderParams) error {
	dir := filepath.Join(p.dir, fmt.Sprintf("ladder-history-%d", os.Getpid()))
	hc, err := formHistory(p.seed, dir, 2, 0, nil)
	if err != nil {
		return err
	}
	defer hc.close()
	for i := 0; i < p.rounds; i++ {
		hc.ingestRound()
	}
	if err := historyLayer(ms, hc, p.budget); err != nil {
		return err
	}
	ms2, err := hc.reopenLast()
	ms.set("tsdb.reopen_ms", ms2, "ms")
	return err
}

// ladderKecho runs a small relay tree of its own — polled dispatch, every
// event traced — and reads kecho's and obs's figures off it, for the
// workloads that carry no raw kecho traffic to measure in place.
func ladderKecho(ms metricSet, p ladderParams) error {
	spec := meshSpec{subs: 7, payload: p.payload, window: 64, dispatch: kecho.Polled, branching: 2, traceEvery: 1}
	m, err := formMesh(spec, p.seed, newTracer("kecho.publish"))
	if err != nil {
		return err
	}
	defer m.close()
	base := m.stats()
	err = m.loop.phase(func() error {
		_, err := m.loop.saturate(10*p.budget, spec.window)
		return err
	})
	if err != nil {
		return err
	}
	if bad := m.loop.totalBad(); bad != 0 {
		return fmt.Errorf("ladder: %d deliveries failed the oracle", bad)
	}
	m.layer(ms, base)
	return nil
}

// ladder runs every rung.
func ladder(p ladderParams) (metricSet, error) {
	ms := metricSet{}
	ladderWire(ms, p)
	ladderOverlay(ms, p)
	for _, rung := range []func(metricSet, ladderParams) error{ladderRegistry, ladderNode, ladderTSDB, ladderHistory, ladderKecho} {
		if err := rung(ms, p); err != nil {
			return ms, err
		}
	}
	return ms, nil
}
