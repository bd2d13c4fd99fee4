package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/faultnet"
	"dproc/internal/kecho"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/registry"
)

// meshSpec describes one raw-kecho cluster: a publisher p0 and subscribers
// s0…s(n-1) on one channel, carrying opaque payloads.
type meshSpec struct {
	subs     int
	payload  int // bytes per event
	window   int // events outstanding in the saturation phase
	dispatch kecho.DispatchMode
	// fabric puts every member behind a faultnet.Fabric, which also moves
	// the read side from the epoll reactor to per-connection readers.
	fabric bool
	// stalled keeps subscriber s0 under StallWrites from the end of set-up
	// to teardown; it is then not one of the healthy consumers.
	stalled bool
	// branching > 0 selects overlay.RelayTree with every member
	// relay-capable; 0 is the flat mesh.
	branching int
	// traceEvery > 0 attaches an obs.Observer sampling one event in
	// traceEvery to every member.
	traceEvery int
}

const (
	meshChannel = "bench"
	pubID       = "p0"
)

func subID(i int) string { return fmt.Sprintf("s%d", i) }

// mesh is a formed cluster plus the closed loop that drives it.
type mesh struct {
	spec    meshSpec
	reg     *registry.Server
	clients []*registry.Client
	fab     *faultnet.Fabric
	pub     *kecho.Channel
	subs    []*kecho.Channel
	// pubObs/subObs are the members' observers; nil when untraced.
	pubObs *obs.Observer
	subObs []*obs.Observer
	loop   *loop
	pay    *payloads

	joinTimes  []time.Duration
	goroutines int // goroutines the cluster added

	stopPoll atomic.Bool
	pollWG   sync.WaitGroup
	// pollMu is held by the poller around each round of Polls; idle(true)
	// takes it, which parks the poller instead of letting it spin.
	pollMu sync.Mutex
	// pollNs/pollEvents time the Poll calls that dispatched something
	// (traced run, polled dispatch only).
	pollNs, pollEvents atomic.Int64
}

// formMesh builds the cluster, subscribes the oracle handlers, and proves
// the first delivery: when it returns, every healthy subscriber has seen
// and verified event 1.
func formMesh(spec meshSpec, seed int64, tr *tracer) (m *mesh, err error) {
	before := runtime.NumGoroutine()
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m = &mesh{spec: spec, reg: reg, pay: newPayloads(seed, spec.payload)}
	defer func() {
		if err != nil {
			m.close()
		}
	}()
	if spec.fabric {
		m.fab = faultnet.NewFabric(seed)
	}
	var topo overlay.Topology
	role := ""
	if spec.branching > 0 {
		topo = overlay.RelayTree{Branching: spec.branching}
		role = overlay.RoleRelay
	}
	join := func(id string) (*kecho.Channel, *obs.Observer, error) {
		cli := registry.NewClient(reg.Addr())
		m.clients = append(m.clients, cli)
		opts := &kecho.Options{Dispatch: spec.dispatch, Topology: topo, Role: role}
		if id == pubID {
			// The publisher only publishes; nothing is ever delivered to it.
			opts.Dispatch = kecho.Polled
		}
		if m.fab != nil {
			opts.Transport = m.fab.Host(id)
		}
		if spec.stalled {
			// A write deadline would tear the stalled peer down after 5 s and
			// turn the rest of the run into a 7-subscriber healthy mesh; the
			// overflow path must stay live beside the healthy one throughout.
			opts.WriteDeadline = -1
		}
		var o *obs.Observer
		if spec.traceEvery > 0 {
			o = obs.New(id, nil, spec.traceEvery)
			opts.Observer = o
		}
		t0 := time.Now()
		ch, err := kecho.Join(cli, meshChannel, id, opts)
		m.joinTimes = append(m.joinTimes, time.Since(t0))
		return ch, o, err
	}
	// Join order. Flat: subscribers first, so the publisher dials every one
	// of them — faultnet attributes a connection to its destination only on
	// the dialling side, which is what lets StallWrites("s0") bite. Tree:
	// the publisher sorts first and takes the root, and members join in
	// sorted order, so each joiner's parent is already listening and one
	// dial per member builds the whole tree.
	if spec.branching > 0 {
		if m.pub, m.pubObs, err = join(pubID); err != nil {
			return m, err
		}
	}
	for i := 0; i < spec.subs; i++ {
		ch, o, err := join(subID(i))
		if err != nil {
			return m, err
		}
		m.subs = append(m.subs, ch)
		m.subObs = append(m.subObs, o)
	}
	if spec.branching == 0 {
		if m.pub, m.pubObs, err = join(pubID); err != nil {
			return m, err
		}
	}
	if err := m.waitConnected(10 * time.Second); err != nil {
		return m, err
	}

	first := 0
	if spec.stalled {
		first = 1
	}
	m.loop = newLoop(spec.subs-first, func(seq uint64) error {
		_, err := m.pub.Publish(m.pay.next(seq), kecho.PublishOpts{})
		return err
	})
	m.loop.traceWith(tr)
	for i, ch := range m.subs {
		if i < first {
			ch.Subscribe(func(kecho.Event) {})
			continue
		}
		ch.Subscribe(m.handler(subID(i), m.loop.consumers[i-first]))
	}
	if spec.dispatch == kecho.Polled {
		m.pollWG.Add(1)
		go m.poller()
	}
	m.goroutines = runtime.NumGoroutine() - before

	err = m.loop.phase(func() error {
		if err := m.loop.send(); err != nil {
			return err
		}
		return m.loop.drain()
	})
	if err != nil {
		return m, fmt.Errorf("first delivery: %w", err)
	}
	if bad := m.loop.totalBad(); bad != 0 {
		return m, fmt.Errorf("first delivery failed the oracle on %d subscribers", bad)
	}
	if spec.stalled {
		m.fab.StallWrites(subID(0), true)
	}
	return m, nil
}

// handler is one subscriber's oracle: the event must come from the
// publisher, carry the sequence number owed next, and be intact.
func (m *mesh) handler(id string, c *consumer) kecho.Handler {
	seq := sequence{next: 1}
	l := m.loop
	return func(ev kecho.Event) {
		var entered int64
		if l.tr != nil {
			entered = l.now()
		}
		inOrder := seq.accept(ev.Seq)
		ok := inOrder && ev.From == pubID && checkPayload(ev.Payload, ev.Seq)
		l.delivered(c, ok)
		if l.tr != nil {
			l.tr.delivery(ev.Seq, id, entered, l.now())
		}
	}
}

// poller is the polled-dispatch drain: one goroutine round-robins Poll over
// every subscriber channel, as a dprocd poll loop would over its sockets.
// With nothing queued it yields instead of sleeping.
func (m *mesh) poller() {
	defer m.pollWG.Done()
	timed := m.loop.tr != nil
	for !m.stopPoll.Load() {
		n := 0
		m.pollMu.Lock()
		for _, ch := range m.subs {
			if !timed {
				n += ch.Poll()
				continue
			}
			t0 := time.Now()
			k := ch.Poll()
			if k > 0 {
				m.pollNs.Add(int64(time.Since(t0)))
				m.pollEvents.Add(int64(k))
			}
			n += k
		}
		m.pollMu.Unlock()
		if n == 0 {
			runtime.Gosched()
		}
	}
}

// idle parks the poller while the reference runs; the event-driven meshes
// have nothing that spins.
func (m *mesh) idle(on bool) {
	if m.spec.dispatch != kecho.Polled {
		return
	}
	if on {
		m.pollMu.Lock()
	} else {
		m.pollMu.Unlock()
	}
}

// degrees returns how many peers each member (publisher first) should hold.
func (m *mesh) degrees() []int {
	n := m.spec.subs + 1
	out := make([]int, n)
	if m.spec.branching == 0 {
		for i := range out {
			out[i] = n - 1
		}
		return out
	}
	roster := []registry.Member{{ID: pubID, Role: overlay.RoleRelay}}
	for i := 0; i < m.spec.subs; i++ {
		roster = append(roster, registry.Member{ID: subID(i), Role: overlay.RoleRelay})
	}
	topo := overlay.RelayTree{Branching: m.spec.branching}
	for i, mem := range roster {
		out[i] = len(topo.Neighbors(mem.ID, roster))
	}
	return out
}

func (m *mesh) channels() []*kecho.Channel {
	return append([]*kecho.Channel{m.pub}, m.subs...)
}

func (m *mesh) waitConnected(timeout time.Duration) error {
	want := m.degrees()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for i, ch := range m.channels() {
			if len(ch.Peers()) != want[i] {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mesh did not form within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stats sums the members' channel counters.
func (m *mesh) stats() kecho.Stats {
	var s kecho.Stats
	for _, ch := range m.channels() {
		if ch == nil {
			continue
		}
		c := ch.Stats()
		s.EventsSent += c.EventsSent
		s.EventsRecv += c.EventsRecv
		s.BytesSent += c.BytesSent
		s.BatchesSent += c.BatchesSent
		s.QueueDrops += c.QueueDrops
		s.Dropped += c.Dropped
		s.DeadlineDrops += c.DeadlineDrops
		s.Relayed += c.Relayed
		s.RelayDups += c.RelayDups
	}
	return s
}

func (m *mesh) close() {
	if m.fab != nil && m.spec.stalled {
		m.fab.StallWrites(subID(0), false)
	}
	m.stopPoll.Store(true)
	m.pollWG.Wait()
	for _, ch := range m.channels() {
		if ch != nil {
			_ = ch.Close()
		}
	}
	for _, cli := range m.clients {
		_ = cli.Close()
	}
	if m.reg != nil {
		_ = m.reg.Close()
	}
}

func (m *mesh) driver() *loop { return m.loop }
func (m *mesh) window() int   { return m.spec.window }

func (m *mesh) observers() []*obs.Observer {
	if m.pubObs == nil {
		return nil
	}
	return append([]*obs.Observer{m.pubObs}, m.subObs...)
}

// meshResult finishes a mesh run's result: loss, then the counter rules of
// the workload over the timed section (counters since base).
func (m *mesh) meshResult(err error, base kecho.Stats) *runResult {
	res := newResult()
	account(res, m.loop)
	if err != nil {
		res.violate("%v", err)
	}
	s := m.stats()
	drops := s.QueueDrops - base.QueueDrops
	res.extra("kecho.queue_drops", float64(drops), "count")
	res.extra("kecho.relay_dups", float64(s.RelayDups-base.RelayDups), "count")
	// Drops are counted per channel, not per peer; that every one of them
	// was s0's follows from the healthy subscribers having lost nothing.
	switch {
	case m.spec.stalled && drops == 0:
		res.violate("stalled subscriber produced no queue drops: the overflow path was not exercised")
	case !m.spec.stalled && drops != 0:
		res.violate("%d queue drops on a healthy mesh", drops)
	}
	if d := s.RelayDups - base.RelayDups; d != 0 {
		res.violate("%d relay duplicates on a converged tree", d)
	}
	if d := s.Dropped - base.Dropped; d != 0 {
		res.violate("%d inbox drops", d)
	}
	return res
}

func runMesh(name string, p runParams) (*runResult, error) {
	spec := meshSpecs[name]
	m, setupS, err := formTimed(p.setups, func() (*mesh, error) { return formMesh(spec, p.seed, nil) })
	if err != nil {
		return nil, err
	}
	defer m.close()
	base := m.stats()
	s, err := runEventSlices(m, p)
	res := m.meshResult(err, base)
	if err == nil {
		endToEnd(res, s, setupS)
	}
	return res, nil
}

func traceMesh(name string, p runParams) (*runResult, error) {
	spec := meshSpecs[name]
	untraced, err := traceBaseline(func() (*mesh, error) { return formMesh(spec, p.seed, nil) }, p)
	if err != nil {
		return nil, err
	}
	spec.traceEvery = traceSampleEvery
	tr := newTracer("kecho.publish")
	m, err := formMesh(spec, p.seed, tr)
	if err != nil {
		return nil, err
	}
	base := m.stats()
	s, err := runEventSlices(m, p.scaled(0.5))
	res := m.meshResult(err, base)
	if err != nil {
		m.close()
		return res, nil
	}
	ms, err := ladder(p.ladder(spec.payload))
	if err != nil {
		m.close()
		return nil, err
	}
	m.layer(ms, base)
	m.close() // before the spans are read: no handler may still be recording
	return finishTrace(res, ms, s, untraced, eventAttributed(m.loop, s), tr, name, p)
}
