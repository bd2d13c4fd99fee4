package main

import (
	"fmt"
	"time"

	"dproc/internal/obs"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a set of reported numbers by name.
type metricSet map[string]Metric

func (ms metricSet) set(name string, v float64, unit string) { ms[name] = Metric{v, unit} }

// runResult is what one run of one workload produced: the contract's last
// line, plus the extras only the human-readable lines and -out carry.
type runResult struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Extra holds figures that are not part of BENCHMARK.json: the raw
	// (un-normalised) end-to-end numbers, sample counts, invariants.
	Extra metricSet `json:"extra,omitempty"`
	// Notes are invariant violations; any makes the run incorrect.
	Notes []string `json:"notes,omitempty"`
}

func newResult() *runResult {
	return &runResult{Correct: true, Metrics: metricSet{}, Extra: metricSet{}}
}

func (r *runResult) set(name string, v float64, unit string)   { r.Metrics.set(name, v, unit) }
func (r *runResult) extra(name string, v float64, unit string) { r.Extra.set(name, v, unit) }

func (r *runResult) violate(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runParams is what the command line fixes for one run.
type runParams struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	// setups is how many times the cluster is formed (median = setup_s);
	// warmup is the untimed run before the timed section. The command line
	// fixes both (defaultSetups, defaultWarmup); the package's smoke test
	// shortens them.
	setups int
	warmup time.Duration
}

func (p runParams) timed() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// part returns one of the slice durations below, scaled down when the whole
// run is too short to hold a full slice (the package's smoke test).
func (p runParams) part(d time.Duration) time.Duration {
	if p.seconds >= 4 {
		return d
	}
	if p.seconds < 0.5 {
		return d / 8 // a saturation part of 50 ms still delivers something
	}
	return time.Duration(float64(d) * p.seconds / 4)
}

// Run shape. The cluster is formed defaultSetups times (setup_s, below) and
// run untimed for defaultWarmup: measured here, the first second of a fresh
// cluster runs 2.5x slower than steady state (cold record pools, the
// runtime's thread pool still growing). The timed section of --seconds is
// then a sequence of slices, each
//
//	reference burst · saturation · reference burst · reference round trips · window-1 probe · reference round trips
//
// and every end-to-end figure but memory is the median over slices of
// "workload ÷ the reference measured right beside it". See reference.go for
// why.
const (
	// defaultSetups: one formation takes 3–30 ms and varies by a factor of two
	// within a run; over 9 formations the run's median still moved with the
	// draw, over 41 (well under a second in all) it mostly does not.
	defaultSetups = 41
	defaultWarmup = 2 * time.Second
	sliceSat      = 400 * time.Millisecond
	sliceProbe    = 160 * time.Millisecond
	refBurst      = 80 * time.Millisecond
	refRTTBurst   = 40 * time.Millisecond
	// refNominalRTT is the reference round trip setup_s is expressed against:
	// between the 7.5 µs and 11 µs this box alternates between, so nominal
	// seconds read close to wall seconds here.
	refNominalRTT = 10 * time.Microsecond
)

// cluster is a formed system under test.
type cluster interface {
	close()
	// idle parks (true) or releases (false) any goroutine of the benchmark
	// that would otherwise spin while the reference runs.
	idle(bool)
}

// eventCluster is a cluster driven by the closed event loop.
type eventCluster interface {
	cluster
	driver() *loop
	window() int
	// observers returns the members' obs.Observers (nil when untraced).
	observers() []*obs.Observer
}

// setupTime is a run's set-up figure: the median, over the formations, of
// construction → first verified delivery.
type setupTime struct {
	// wall is plain seconds. It is printed, not gated: between the two
	// baseline sets of one commit its median moved by up to 37 %, as the
	// machine did.
	wall float64
	// nominal is setup_s: wall scaled by how slowly the reference's round
	// trip ran just before and after the formations, relative to
	// refNominalRTT — seconds on a machine that turns a loopback echo round
	// in exactly that time. BENCHMARK fixes this metric's name and unit, so
	// unlike the other figures it cannot be a bare ratio; on the same two
	// sets, divided by the run's reference, its median moved by at most 14 %.
	nominal float64
}

// formTimed forms the cluster rounds times and keeps the last. Forming
// several times per run is what makes the set-up figure repeat.
func formTimed[C cluster](rounds int, form func() (C, error)) (C, setupTime, error) {
	var c C
	ref, err := newReference()
	if err != nil {
		return c, setupTime{}, err
	}
	defer ref.close()
	// The reference brackets the formations instead of alternating with
	// them: the formation that follows an echo burst reproducibly takes
	// 13 ms longer (a parked netpoller that only sysmon's 10 ms sweep
	// rescues), which would bury node-pair's 4 ms set-up. Back to back, only
	// the first formation pays that, and the median does not see it.
	rtt := ref.rtt(refRTTBurst)
	var wall []float64
	for i := 0; i < rounds; i++ {
		if i > 0 {
			c.close()
		}
		t0 := time.Now()
		if c, err = form(); err != nil {
			return c, setupTime{}, fmt.Errorf("set-up: %w", err)
		}
		wall = append(wall, time.Since(t0).Seconds())
	}
	c.idle(true)
	rtt = (rtt + ref.rtt(refRTTBurst)) / 2
	c.idle(false)
	w := median(wall)
	return c, setupTime{wall: w, nominal: w * float64(refNominalRTT) / rtt}, nil
}

// slices accumulates the per-slice figures of one run. Every workload fills
// the same fields; "delivery" is a handler delivery on the event workloads
// and a sample accepted into history on history-rw.
type slices struct {
	rate    []float64 // deliveries/s in the slice's saturation part
	cpu     []float64 // process CPU ns per delivery, same part
	latP50  []float64 // ns, the slice's probe part
	relRate []float64 // rate ÷ reference echoes/s
	relCPU  []float64 // cpu ÷ reference CPU ns per echo
	relP50  []float64 // latP50 ÷ reference round trip
	refRate []float64
	refRTT  []float64
	util    []float64 // process CPU ÷ wall in the saturation part, cores
	wait    []float64 // generator wait share (event workloads)

	latency    []int64 // every probe sample of the run, ns
	deliveries uint64
	mallocs    uint64
	gcPause    time.Duration
	heap       uint64 // live heap at the end of the last slice
	// probeStages is what the observers' stage histograms recorded inside
	// the probe parts only (traced runs): the stages of a window-1 round,
	// without the queueing a full window adds.
	probeStages stages
}

// sliceInput is one slice as measured: the saturation part (deliveries over
// elapsed, the process counters read before and after it) between two
// reference bursts, and the probe part's latency samples between two
// reference round-trip readings.
type sliceInput struct {
	deliveries    uint64
	elapsed       time.Duration
	before, after procSample
	ref0, ref1    refBurstResult
	probe         []int64
	rtt0, rtt1    float64
}

// add folds one slice in.
func (s *slices) add(in sliceInput) {
	if in.deliveries == 0 {
		return // a slice too short to complete anything measures nothing
	}
	cpu := in.after.cpu - in.before.cpu
	rate := float64(in.deliveries) / in.elapsed.Seconds()
	perDelivery := float64(cpu) / float64(in.deliveries)
	refRate := (in.ref0.rate + in.ref1.rate) / 2
	refCPU := (in.ref0.cpuPerMsg + in.ref1.cpuPerMsg) / 2
	refRTT := (in.rtt0 + in.rtt1) / 2
	p50 := percentile(durationsToFloat(in.probe, 1), 0.5)
	s.rate = append(s.rate, rate)
	s.cpu = append(s.cpu, perDelivery)
	s.latP50 = append(s.latP50, p50)
	s.relRate = append(s.relRate, rate/refRate)
	s.relCPU = append(s.relCPU, perDelivery/refCPU)
	s.relP50 = append(s.relP50, p50/refRTT)
	s.refRate = append(s.refRate, refRate)
	s.refRTT = append(s.refRTT, refRTT)
	s.util = append(s.util, float64(cpu)/float64(in.elapsed))
	s.latency = append(s.latency, in.probe...)
	s.deliveries += in.deliveries
	s.mallocs += in.after.mallocs - in.before.mallocs
	s.gcPause += in.after.gcPause - in.before.gcPause
	s.heap = in.after.heap
}

// runEventSlices is the measured part every event-carrying workload shares.
func runEventSlices(c eventCluster, p runParams) (*slices, error) {
	s := &slices{}
	l := c.driver()
	ref, err := newReference()
	if err != nil {
		return s, err
	}
	defer ref.close()
	// The reference must see the machine, not a spinning poller.
	throughput := func() refBurstResult {
		c.idle(true)
		defer c.idle(false)
		return ref.throughput(p.part(refBurst))
	}
	rtt := func() float64 {
		c.idle(true)
		defer c.idle(false)
		return ref.rtt(p.part(refRTTBurst))
	}
	probe := make([]int64, 0, 1<<12)
	err = l.phase(func() error {
		if _, err := l.saturate(p.warmup, c.window()); err != nil {
			return err
		}
		for start := time.Now(); time.Since(start) < p.timed(); {
			in := sliceInput{ref0: throughput(), before: readProc()}
			sat, err := l.saturate(p.part(sliceSat), c.window())
			if err != nil {
				return err
			}
			in.deliveries, in.elapsed, in.after = sat.deliveries, sat.elapsed, readProc()
			in.ref1, in.rtt0 = throughput(), rtt()
			var stages0 stages
			if l.tr != nil {
				stages0 = readStages(c.observers())
			}
			if probe, err = l.probe(p.part(sliceProbe), probe[:0]); err != nil {
				return err
			}
			if l.tr != nil {
				s.probeStages.add(readStages(c.observers()), stages0)
			}
			in.probe, in.rtt1 = probe, rtt()
			s.add(in)
			s.wait = append(s.wait, float64(sat.wait)/float64(sat.elapsed))
		}
		return nil
	})
	return s, err
}

// account fills the contract's attempted/failed from the loop: every event
// emitted in the whole run is owed to every healthy consumer.
func account(res *runResult, l *loop) {
	owed := l.sent.Load() * uint64(len(l.consumers))
	good := l.totalRecv() - l.totalBad()
	res.Attempted = int64(owed)
	if good < owed {
		res.Failed = int64(owed - good)
	}
	if res.Failed > 0 {
		res.violate("%d of %d owed deliveries lost, duplicated, reordered or corrupt", res.Failed, owed)
	}
}

// endToEnd derives the end-to-end metrics from a run's slices. The gated
// metrics are the reference-relative medians; the raw figures they were
// computed from are printed beside them as extras.
func endToEnd(res *runResult, s *slices, setup setupTime) {
	lat := durationsToFloat(s.latency, 1e3)
	refRTTus := median(s.refRTT) / 1e3
	res.set("setup_s", setup.nominal, "s")
	res.set("delivered_rel", median(s.relRate), "ratio")
	res.set("latency_p50_rel", median(s.relP50), "ratio")
	res.set("cpu_per_delivery_rel", median(s.relCPU), "ratio")
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")

	res.extra("setup_wall_s", setup.wall, "s")
	res.extra("latency_p99_rel", percentile(lat, 0.99)/refRTTus, "ratio")
	res.extra("delivered_eps", median(s.rate), "1/s")
	res.extra("latency_p50_us", median(s.latP50)/1e3, "us")
	res.extra("latency_p99_us", percentile(lat, 0.99), "us")
	res.extra("cpu_us_per_delivery", median(s.cpu)/1e3, "us")
	res.extra("allocs_per_delivery", quotient(float64(s.mallocs), float64(s.deliveries)), "count")
	res.extra("ref.echo_eps", median(s.refRate), "1/s")
	res.extra("ref.rtt_us", refRTTus, "us")
	res.extra("slices", float64(len(s.rate)), "count")
	res.extra("latency_samples", float64(len(lat)), "count")
	if len(s.wait) > 0 {
		res.extra("gen.wait_share", median(s.wait), "ratio")
	}
}
