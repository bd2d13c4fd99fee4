package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/registry"
	"dproc/internal/simres"
)

// fig3Filter is the paper's Figure 3 E-code filter: forward the load
// average when it is high, disk usage and free memory when both are bad,
// and the cache-miss rate when it rose since it was last sent.
const fig3Filter = `
{
  int i = 0;
  if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; i = i + 1; }
  if(input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6){
    output[i] = input[DISKUSAGE]; i = i + 1;
    output[i] = input[FREEMEM]; i = i + 1;
  }
  if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
    output[i] = input[CACHE_MISS]; i = i + 1;
  }
}`

const (
	nodeA = "alan" // publishes
	nodeB = "maui" // receives
	// sampleRing bounds how many of A's load-average samples are kept for
	// B's handler to compare against; far more than the window.
	sampleRing = 1024
)

// busyHost returns a simulated host, shaped by the seed, on which every
// clause of fig3Filter can fire: load above 2, disk above 10000 sectors/s,
// free memory under 50 MB. The load clause always fires, so every poll
// publishes a report.
func busyHost(name string, seed int64) *simres.Host {
	rng := rand.New(rand.NewSource(seed))
	h := simres.NewHost(name, clock.NewReal(), seed)
	h.SetBaseLoad(3 + 2*rng.Float64())
	h.SetDiskActivity(15000 + 20000*rng.Float64())
	h.SetMemExtra(uint64(370+rng.Intn(30)) << 20) // of 416 MiB free when idle
	return h
}

// recordingSource is node A's metric source: the simulated host, plus a
// record of every load-average sample it handed out, so that B's handler
// can assert the value it stored is the value A sampled.
type recordingSource struct {
	host *simres.Host
	ring [sampleRing]atomic.Uint64 // float bits of the k-th LOADAVG sample at k % sampleRing
	n    atomic.Uint64
}

func (s *recordingSource) Sample(id metrics.ID) float64 {
	v := s.host.Sample(id)
	if id == metrics.LOADAVG {
		k := s.n.Load()
		s.ring[k%sampleRing].Store(math.Float64bits(v))
		s.n.Store(k + 1)
	}
	return v
}

// nodePair is two full core.Nodes on one registry. One round is
// A.PollOnce(): collect, filter, encode, publish — and B's d-mon handler
// decoding the report into its store.
type nodePair struct {
	reg        *registry.Server
	a, b       *core.Node
	src        *recordingSource
	loop       *loop
	startTimes []time.Duration
}

func (np *nodePair) driver() *loop { return np.loop }

// window is small: the path is one subscriber deep, and a reader of
// cluster/<node>/<metric> cares about the newest report, not a backlog.
func (np *nodePair) window() int { return 64 }
func (np *nodePair) idle(bool)   {}

// observers: a core.Node always carries one; cfg.TraceSample only decides
// whether it also samples traces.
func (np *nodePair) observers() []*obs.Observer {
	return []*obs.Observer{np.a.Observer(), np.b.Observer()}
}

// formNodePair starts both nodes and proves the first delivery by value.
// traceEvery is core.Config.TraceSample.
func formNodePair(seed int64, traceEvery int, tr *tracer) (np *nodePair, err error) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	np = &nodePair{reg: reg, src: &recordingSource{host: busyHost(nodeA, seed)}}
	defer func() {
		if err != nil {
			np.close()
		}
	}()
	start := func(name string, src dmon.Source) (*core.Node, error) {
		cfg := core.Defaults()
		cfg.Name = name
		cfg.RegistryAddr = reg.Addr()
		cfg.Source = src
		cfg.Channel.Dispatch = kecho.EventDriven
		// Memory-only history, held to one second: at ~10^5 reports a second
		// the default hour would make memory a function of run length, not of
		// the code. Chunk sealing and eviction both run.
		cfg.HistoryRetention = time.Second
		cfg.TraceSample = traceEvery
		t0 := time.Now()
		n, err := core.NewNode(cfg)
		np.startTimes = append(np.startTimes, time.Since(t0))
		return n, err
	}
	if np.b, err = start(nodeB, busyHost(nodeB, seed+1)); err != nil {
		return np, err
	}
	if np.a, err = start(nodeA, np.src); err != nil {
		return np, err
	}
	if err := np.a.DMon().DeployFilter(0, true, fig3Filter); err != nil {
		return np, err
	}
	// A period far below the cost of a poll: every resource is due on every
	// PollOnce, so the generator, not a timer, paces the node.
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := np.a.DMon().SetPeriod(r, time.Microsecond); err != nil {
			return np, err
		}
	}
	for _, n := range []*core.Node{np.a, np.b} {
		if !n.MonitoringChannel().WaitForPeers(1, 5*time.Second) || !n.ControlChannel().WaitForPeers(1, 5*time.Second) {
			return np, fmt.Errorf("node %s: channels did not connect", n.Name())
		}
	}

	np.loop = newLoop(1, func(uint64) error {
		_, published, err := np.a.PollOnce()
		if err == nil && !published {
			err = errors.New("poll published nothing: the filter suppressed the report")
		}
		return err
	})
	np.loop.traceWith(tr)
	// Subscribed after d-mon's own handler, so it runs after the report has
	// been decoded into B's store.
	np.b.MonitoringChannel().Subscribe(np.check(np.loop.consumers[0]))

	err = np.loop.phase(func() error {
		if err := np.loop.send(); err != nil {
			return err
		}
		return np.loop.drain()
	})
	if err != nil {
		return np, fmt.Errorf("first delivery: %w", err)
	}
	if np.loop.totalBad() != 0 {
		return np, errors.New("first delivery: B's stored value is not A's sample")
	}
	return np, nil
}

// check is the oracle on B: reports arrive from A contiguous and in order,
// and after each one B's store holds exactly the load average A sampled in
// the poll that produced it.
func (np *nodePair) check(c *consumer) kecho.Handler {
	seq := sequence{next: 1}
	l := np.loop
	store := np.b.DMon().Store()
	return func(ev kecho.Event) {
		var entered int64
		if l.tr != nil {
			entered = l.now()
		}
		k := c.recv.Load() // this is delivery k+1, produced by A's poll k+1, which took sample k
		got, have := store.Value(nodeA, metrics.LOADAVG)
		inOrder := seq.accept(ev.Seq)
		ok := inOrder && have && ev.From == nodeA &&
			math.Float64bits(got) == np.src.ring[k%sampleRing].Load()
		l.delivered(c, ok)
		if l.tr != nil {
			l.tr.delivery(ev.Seq, nodeB, entered, l.now())
		}
	}
}

func (np *nodePair) close() {
	if np.a != nil {
		_ = np.a.Close()
	}
	if np.b != nil {
		_ = np.b.Close()
	}
	_ = np.reg.Close()
}

// nodeResult finishes a node-pair run's result: loss, filter failures, drops.
func (np *nodePair) nodeResult(err error) *runResult {
	res := newResult()
	account(res, np.loop)
	if err != nil {
		res.violate("%v", err)
	}
	if n := np.a.DMon().FilterErrors(); n != 0 {
		res.violate("%d filter executions failed", n)
	}
	if s := np.a.MonitoringChannel().Stats(); s.QueueDrops != 0 {
		res.violate("%d queue drops between two healthy nodes", s.QueueDrops)
	}
	return res
}

func runNodePair(p runParams) (*runResult, error) {
	np, setupS, err := formTimed(p.setups, func() (*nodePair, error) { return formNodePair(p.seed, core.DefaultTraceSample, nil) })
	if err != nil {
		return nil, err
	}
	defer np.close()
	s, err := runEventSlices(np, p)
	res := np.nodeResult(err)
	if err == nil {
		endToEnd(res, s, setupS)
	}
	return res, nil
}

func traceNodePair(p runParams) (*runResult, error) {
	untraced, err := traceBaseline(func() (*nodePair, error) { return formNodePair(p.seed, core.DefaultTraceSample, nil) }, p)
	if err != nil {
		return nil, err
	}
	tr := newTracer("core.poll_once")
	np, err := formNodePair(p.seed, traceSampleEvery, tr)
	if err != nil {
		return nil, err
	}
	s, err := runEventSlices(np, p.scaled(0.5))
	res := np.nodeResult(err)
	if err != nil {
		np.close()
		return res, nil
	}
	ms, err := ladder(p.ladder(64))
	if err != nil {
		np.close()
		return nil, err
	}
	// How much of a real poll the ladder's rungs add up to: the rungs are the
	// stages of A.PollOnce timed alone, the poll is the same stages in place.
	rungs := ms.us("dmon.collect_ns") + ms.us("dmon.filter_ns") + ms.us("dmon.build_report_ns") +
		ms.us("dmon.store_update_ns") + ms.us("metrics.encode_ns") + ms.us("kecho.publish_ns") + ms.us("core.refresh_ns")

	ms.set("core.node_start_ms", medianMs(np.startTimes), "ms")
	if poll := durationsToFloat(np.loop.emitNs, 1); len(poll) > 0 {
		ms.set("core.poll_once_ns", percentile(poll, 0.50), "ns")
		res.extra("ladder.rungs_to_poll_ratio", rungs/ms.us("core.poll_once_ns"), "ratio")
	}
	sent, recv := np.a.MonitoringChannel().Stats(), np.b.MonitoringChannel().Stats()
	sent.EventsRecv, sent.Dropped = recv.EventsRecv, recv.Dropped
	kechoCounters(ms, sent, kecho.Stats{})
	obsLayer(ms, np.observers())
	np.close() // before the spans are read: no handler may still be recording
	return finishTrace(res, ms, s, untraced, eventAttributed(np.loop, s), tr, "node-pair", p)
}
