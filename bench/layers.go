package main

import (
	"fmt"
	"path/filepath"
	"time"

	"dproc/internal/kecho"
	"dproc/internal/obs"
)

// The traced run (-trace 1). It prints the per-layer metrics, never the
// end-to-end ones: those come from the untraced run, which this flag does
// not touch. A traced run is
//
//  1. the workload's cluster formed without observers or spans, run for a
//     quarter of --seconds (the baseline of obs.trace_overhead_ratio);
//  2. the same cluster formed with an obs.Observer on every member sampling
//     one event in traceSampleEvery and benchmark-side spans around every
//     call into a layer, run for the rest;
//  3. the layer ladder (ladder.go) on the workload's inputs.
//
// Figures measured in place (2) replace the ladder's (3) under the same
// name; the ladder guarantees every name has a value on every workload.
const traceSampleEvery = 64

// ladder sizes the ladder to the run: a millisecond per rung for every
// second of --seconds, and enough history rounds — at full length — to fill
// the widest query window and seal a chunk per series.
func (p runParams) ladder(payload int) ladderParams {
	rounds := 20 + int(20*p.seconds)
	if rounds > 320 {
		rounds = 320
	}
	return ladderParams{seed: p.seed, payload: payload, dir: p.outDir, rounds: rounds,
		budget: time.Duration(p.seconds * float64(time.Millisecond))}
}

// scaled returns p with --seconds scaled, for the parts of a traced run.
func (p runParams) scaled(f float64) runParams {
	p.seconds *= f
	return p
}

// snapshots merges the same histogram across a set of observers.
func snapshots(os []*obs.Observer, pick func(*obs.Observer) *obs.Histogram) obs.Snapshot {
	var s obs.Snapshot
	for _, o := range os {
		if o != nil {
			s.Merge(pick(o).Snapshot())
		}
	}
	return s
}

// stages is the three observer histograms that split a delivery's transit:
// outbox residency, cross-node propagation, handler dispatch.
type stages struct {
	queue, prop, dispatch obs.Snapshot
}

func readStages(os []*obs.Observer) stages {
	return stages{
		queue:    snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.QueueResidency }),
		prop:     snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.PropDelay }),
		dispatch: snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.DispatchTime }),
	}
}

// add folds in what was recorded between two readings (histograms only
// grow, so the difference of two readings is itself a histogram).
func (s *stages) add(after, before stages) {
	fold := func(dst *obs.Snapshot, a, b obs.Snapshot) {
		dst.Count += a.Count - b.Count
		dst.Sum += a.Sum - b.Sum
		for i := range dst.Buckets {
			dst.Buckets[i] += a.Buckets[i] - b.Buckets[i]
		}
	}
	fold(&s.queue, after.queue, before.queue)
	fold(&s.prop, after.prop, before.prop)
	fold(&s.dispatch, after.dispatch, before.dispatch)
}

// medianUs is the sum of the three stages' medians, in µs.
func (s *stages) medianUs() float64 {
	return float64(s.queue.Quantile(0.5)+s.prop.Quantile(0.5)+s.dispatch.Quantile(0.5)) / 1e3
}

// obsLayer reads the stage histograms the observers already export: outbox
// residency, cross-node propagation (per relay depth), dispatch, batch
// size, filter time. Together they split the benchmark's opaque "transit"
// span into stages.
func obsLayer(ms metricSet, os []*obs.Observer) {
	us := func(name string, s obs.Snapshot, q float64) {
		if s.Count > 0 {
			ms.set(name, float64(s.Quantile(q))/1e3, "us")
		}
	}
	queue := snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.QueueResidency })
	us("obs.queue_p50_us", queue, 0.50)
	us("obs.queue_p99_us", queue, 0.99)
	us("obs.prop_p50_us", snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.PropDelay }), 0.50)
	us("obs.dispatch_p50_us", snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.DispatchTime }), 0.50)
	us("obs.filter_p50_us", snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.FilterRun }), 0.50)
	us("obs.prop_d1_p99_us", snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.PropDelayDepth[1] }), 0.99)
	us("obs.prop_d2_p99_us", snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.PropDelayDepth[2] }), 0.99)
	if batch := snapshots(os, func(o *obs.Observer) *obs.Histogram { return o.BatchSize }); batch.Count > 0 {
		ms.set("obs.batch_p50", float64(batch.Quantile(0.50)), "count")
		ms.set("kecho.events_per_frame", float64(batch.Sum)/float64(batch.Count), "count")
	}
}

// kechoCounters reports channel counters accumulated since base.
func kechoCounters(ms metricSet, s, base kecho.Stats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	ms.set("kecho.events_sent", d(s.EventsSent, base.EventsSent), "count")
	ms.set("kecho.events_recv", d(s.EventsRecv, base.EventsRecv), "count")
	ms.set("kecho.bytes_sent", d(s.BytesSent, base.BytesSent), "B")
	ms.set("kecho.batches_sent", d(s.BatchesSent, base.BatchesSent), "count")
	ms.set("kecho.queue_drops", d(s.QueueDrops, base.QueueDrops), "count")
	ms.set("kecho.inbox_drops", d(s.Dropped, base.Dropped), "count")
	ms.set("kecho.deadline_drops", d(s.DeadlineDrops, base.DeadlineDrops), "count")
	ms.set("kecho.relayed", d(s.Relayed, base.Relayed), "count")
	ms.set("kecho.relay_dups", d(s.RelayDups, base.RelayDups), "count")
	ratio := 0.0
	if seen := d(s.EventsRecv, base.EventsRecv) + d(s.RelayDups, base.RelayDups); seen > 0 {
		ratio = d(s.RelayDups, base.RelayDups) / seen
	}
	ms.set("kecho.relay_dup_ratio", ratio, "ratio")
}

// layer reads kecho's and obs's per-layer figures off a mesh that has run
// traced: join time, goroutines, publish and poll cost, counters since base,
// the overlay's shape, and the observers' stage histograms.
func (m *mesh) layer(ms metricSet, base kecho.Stats) {
	ms.set("kecho.join_ms", medianMs(m.joinTimes), "ms")
	ms.set("kecho.goroutines", float64(m.goroutines), "count")
	if pub := durationsToFloat(m.loop.emitNs, 1); len(pub) > 0 {
		ms.set("kecho.publish_ns", percentile(pub, 0.50), "ns")
		ms.set("kecho.publish_p99_ns", percentile(pub, 0.99), "ns")
	}
	if n := m.pollEvents.Load(); n > 0 {
		ms.set("kecho.poll_ns_per_event", float64(m.pollNs.Load())/float64(n), "ns")
	}
	kechoCounters(ms, m.stats(), base)
	ms.set("overlay.pub_degree", float64(m.degrees()[0]), "count")
	depth := 1
	if b := m.spec.branching; b > 0 {
		// The last member's depth in the implicit b-ary heap.
		depth = 0
		for i := m.spec.subs; i > 0; i = (i - 1) / b {
			depth++
		}
	}
	ms.set("overlay.depth", float64(depth), "count")
	obsLayer(ms, m.observers())
}

// procLayer reports what the process spent over a run's saturation parts,
// the run's own window-1 latency, and the reference it was measured beside.
func procLayer(ms metricSet, s *slices) {
	ms.set("proc.cpu_util", median(s.util), "cores")
	ms.set("proc.allocs_per_delivery", quotient(float64(s.mallocs), float64(s.deliveries)), "count")
	ms.set("proc.gc_pause_ms", float64(s.gcPause)/1e6, "ms")
	ms.set("proc.heap_mb", float64(s.heap)/(1<<20), "MiB")
	ms.set("gen.wait_share", median(s.wait), "ratio") // 0 where no generator waits on a window
	lat := durationsToFloat(s.latency, 1e3)
	ms.set("probe.latency_p50_us", percentile(lat, 0.50), "us")
	ms.set("probe.latency_p99_us", percentile(lat, 0.99), "us")
	ms.set("ref.echo_eps", median(s.refRate), "1/s")
	ms.set("ref.rtt_us", median(s.refRTT)/1e3, "us")
}

// spanLayer writes the span file and reports, as extras, the median self
// time of every span name in it.
func spanLayer(res *runResult, tr *tracer, workload string, p runParams) error {
	spans := tr.spans()
	for name, v := range selfTimes(spans) {
		res.extra("span."+name+".self_p50_us", percentile(v, 0.50)/1e3, "us")
	}
	res.extra("span.recorded", float64(tr.next.Load()), "count")
	path := filepath.Join(p.outDir, "trace-"+workload+".json")
	return writeTrace(path, traceFile{
		Workload: workload,
		Seed:     p.seed,
		Note:     fmt.Sprintf("newest %d of %d spans; times are ns since the run's epoch; self time = span minus the part its children cover", len(spans), tr.next.Load()),
		Spans:    spans,
	})
}

// residual is the share of the window-1 latency that nothing measured
// accounts for — kernel, scheduler, and whatever sits between the stages
// the observers time. attributed is in µs. The error is half the range of
// the same figure over five consecutive blocks of the probe samples.
func residual(ms metricSet, latency []int64, attributedUs float64) {
	lat := make([]float64, len(latency))
	for i, v := range latency {
		lat[i] = float64(v) / 1e3
	}
	ratio := func(block []float64) float64 {
		p50 := percentile(sorted(block), 0.50)
		if p50 == 0 {
			return 0
		}
		return (p50 - attributedUs) / p50
	}
	ms.set("ladder.residual_ratio", ratio(lat), "ratio")
	ms.set("ladder.attributed_us", attributedUs, "us")
	const blocks = 5
	lo, hi := 1.0, -1.0
	for b := 0; b < blocks && len(lat) >= blocks; b++ {
		r := ratio(lat[b*len(lat)/blocks : (b+1)*len(lat)/blocks])
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	err := 0.0
	if hi >= lo {
		err = (hi - lo) / 2
	}
	ms.set("ladder.residual_err", err, "ratio")
}

// eventAttributed is what a window-1 round of an event workload can be
// charged to, in µs: the generator's emit call (Publish, or the whole
// PollOnce on node-pair) plus the observers' queue, propagation and dispatch
// medians — all taken inside the probe parts only, because a full window
// adds queueing to every one of them.
func eventAttributed(l *loop, s *slices) float64 {
	emit := percentile(durationsToFloat(l.probeEmitNs, 1e3), 0.50)
	return emit + s.probeStages.medianUs()
}

// us returns a metric's value in µs whatever time unit it was set in.
func (ms metricSet) us(name string) float64 {
	m := ms[name]
	switch m.Unit {
	case "ns":
		return m.Value / 1e3
	case "ms":
		return m.Value * 1e3
	}
	return m.Value
}

// traceBaseline runs the workload's cluster untraced for a quarter of the
// section and returns its reference-relative rate: what the traced cluster's
// rate is divided by to give obs.trace_overhead_ratio.
func traceBaseline[C eventCluster](form func() (C, error), p runParams) (float64, error) {
	c, err := form()
	if err != nil {
		return 0, err
	}
	defer c.close()
	s, err := runEventSlices(c, p.scaled(0.25))
	if err != nil {
		return 0, err
	}
	return median(s.relRate), nil
}

// finishTrace is the common tail of a traced run, called once the traced
// cluster is closed: process figures, tracing overhead against the untraced
// baseline, the unattributed share of the window-1 latency, the span file.
func finishTrace(res *runResult, ms metricSet, s *slices, untraced, attributedUs float64, tr *tracer, workload string, p runParams) (*runResult, error) {
	procLayer(ms, s)
	ms.set("obs.trace_overhead_ratio", quotient(median(s.relRate), untraced), "ratio")
	residual(ms, s.latency, attributedUs)
	res.Metrics = ms
	return res, spanLayer(res, tr, workload, p)
}
