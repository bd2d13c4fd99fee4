// Package faultnet is a deterministic fault-injection layer over real
// loopback TCP. A Fabric owns a set of named hosts; each host is a
// wire.Transport whose connections are wrapped so that a programmable fault
// plan can be applied to them: dial refusal, connection kill after N
// frames, read/write stalls, added latency with seeded jitter, and named
// partition groups. As a node's transport (core.Config.Transport) a host
// carries all of its traffic: channels, registry client, admin server.
//
// The fabric never injects faults spontaneously — every fault is scripted by
// an explicit call (Refuse, Partition, StallWrites, ...), and the only
// randomness (latency jitter) is drawn from a seeded generator, so a test
// that replays the same script against the same seed observes the same
// behaviour. This is the harness the transport stack's self-healing paths
// (kecho reconnect supervisor, registry heartbeats) are tested against.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fabric is the shared fault state for a set of hosts. All methods are safe
// for concurrent use.
type Fabric struct {
	mu   sync.Mutex
	rng  *rand.Rand
	host map[string]*Host
	// addrHost maps a listener address to the host that owns it, so dials
	// can be attributed to a destination host.
	addrHost map[string]string
	// group assigns hosts to named partition groups ("" = ungrouped).
	group map[string]string
	// cutGroups holds active partitions as unordered group pairs.
	cutGroups map[[2]string]bool
	// refused holds hosts whose inbound dials are refused.
	refused map[string]bool
	// crashed holds hosts whose outbound dials are refused too.
	crashed map[string]bool
	// wstall / rstall hold hosts whose inbound writes / local reads stall.
	wstall map[string]bool
	rstall map[string]bool
	// latency is the added per-write delay toward a host.
	latency map[string]latencyRange
	// killAfter maps a host pair to a frame budget for new connections.
	killAfter map[[2]string]int
	conns     map[*Conn]struct{}

	listens        uint64
	accepts        atomic.Uint64
	dialsAttempted uint64
	dialsRefused   uint64
	connsKilled    uint64
}

type latencyRange struct {
	min, max time.Duration
}

// NewFabric returns a fabric whose latency jitter is drawn from seed.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		rng:       rand.New(rand.NewSource(seed)),
		host:      map[string]*Host{},
		addrHost:  map[string]string{},
		group:     map[string]string{},
		cutGroups: map[[2]string]bool{},
		refused:   map[string]bool{},
		crashed:   map[string]bool{},
		wstall:    map[string]bool{},
		rstall:    map[string]bool{},
		latency:   map[string]latencyRange{},
		killAfter: map[[2]string]int{},
		conns:     map[*Conn]struct{}{},
	}
}

// Stats is a snapshot of fabric-level counters.
type Stats struct {
	// Listens and Accepts count listeners opened and connections accepted.
	Listens        uint64
	Accepts        uint64
	DialsAttempted uint64
	DialsRefused   uint64
	ConnsKilled    uint64
	LiveConns      int
}

// Stats returns current fabric counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Listens:        f.listens,
		Accepts:        f.accepts.Load(),
		DialsAttempted: f.dialsAttempted,
		DialsRefused:   f.dialsRefused,
		ConnsKilled:    f.connsKilled,
		LiveConns:      len(f.conns),
	}
}

// Host returns the named host endpoint, creating it on first use.
func (f *Fabric) Host(name string) *Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.host[name]
	if !ok {
		h = &Host{fabric: f, name: name}
		f.host[name] = h
	}
	return h
}

// --- fault plan ---

// Refuse makes every new dial toward host fail until Allow is called.
// Existing connections are unaffected.
func (f *Fabric) Refuse(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refused[host] = true
}

// Allow clears a Refuse or a Crash on host.
func (f *Fabric) Allow(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.refused, host)
	delete(f.crashed, host)
}

// Sever kills every live connection between hosts a and b (in either
// direction), returning how many were killed. New dials remain allowed, so
// a self-healing layer can immediately reconnect.
func (f *Fabric) Sever(a, b string) int {
	f.mu.Lock()
	var victims []*Conn
	for c := range f.conns {
		if (c.local == a && c.remote == b) || (c.local == b && c.remote == a) {
			victims = append(victims, c)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.kill()
	}
	return len(victims)
}

// Crash refuses new dials to and from host and kills every live connection
// touching it — the closest loopback analogue of a node losing power: its
// own supervisor and registry client reach nobody while it is down. Revive
// with Allow.
func (f *Fabric) Crash(host string) int {
	f.mu.Lock()
	f.refused[host] = true
	f.crashed[host] = true
	var victims []*Conn
	for c := range f.conns {
		if c.local == host || c.remote == host {
			victims = append(victims, c)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.kill()
	}
	return len(victims)
}

// KillAfterFrames arms a one-shot rule: the next connection dialed from
// host "from" to host "to" dies after n successful writes (frames, since the
// wire codec writes one frame per Write call).
func (f *Fabric) KillAfterFrames(from, to string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killAfter[[2]string{from, to}] = n
}

// StallWrites makes every write toward host block (until the writer's
// deadline, if any) while the stall is set.
func (f *Fabric) StallWrites(host string, stalled bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if stalled {
		f.wstall[host] = true
	} else {
		delete(f.wstall, host)
	}
}

// StallReads makes every read performed by host block while set.
func (f *Fabric) StallReads(host string, stalled bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if stalled {
		f.rstall[host] = true
	} else {
		delete(f.rstall, host)
	}
}

// SetLatency adds a delay in [min, max] (jitter from the fabric seed) to
// every write toward host. min == max gives a fixed delay; zeros clear it.
func (f *Fabric) SetLatency(host string, min, max time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if min <= 0 && max <= 0 {
		delete(f.latency, host)
		return
	}
	if max < min {
		max = min
	}
	f.latency[host] = latencyRange{min: min, max: max}
}

// SetGroup assigns host to a named partition group.
func (f *Fabric) SetGroup(host, group string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.group[host] = group
}

// Partition cuts groups a and b apart: live connections between them are
// killed and new dials across the cut are refused until Heal.
func (f *Fabric) Partition(a, b string) int {
	f.mu.Lock()
	f.cutGroups[groupKey(a, b)] = true
	var victims []*Conn
	for c := range f.conns {
		if c.remote != "" && f.cutLocked(c.local, c.remote) {
			victims = append(victims, c)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.kill()
	}
	return len(victims)
}

// Heal removes every partition cut. Refuse/stall/latency rules are
// unaffected.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cutGroups = map[[2]string]bool{}
}

func groupKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// cutLocked reports whether traffic between two hosts crosses an active
// partition. Caller holds f.mu.
func (f *Fabric) cutLocked(hostA, hostB string) bool {
	if len(f.cutGroups) == 0 {
		return false
	}
	ga, gb := f.group[hostA], f.group[hostB]
	if ga == gb {
		return false
	}
	return f.cutGroups[groupKey(ga, gb)]
}

// --- host endpoints ---

// Host is one named endpoint on the fabric: a wire.Transport standing in
// for wire.TCP.
type Host struct {
	fabric *Fabric
	name   string
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listen opens a TCP listener owned by this host; accepted connections are
// fabric-wrapped.
func (h *Host) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	f := h.fabric
	f.mu.Lock()
	f.listens++
	f.addrHost[ln.Addr().String()] = h.name
	f.mu.Unlock()
	return &listener{Listener: ln, host: h}, nil
}

// DialTimeout dials address through the fabric, applying dial refusal,
// a crash of this host, partitions, and latency for the destination host.
func (h *Host) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	f := h.fabric
	f.mu.Lock()
	f.dialsAttempted++
	remote := f.addrHost[address]
	refused := f.refused[remote] || f.crashed[h.name] || (remote != "" && f.cutLocked(h.name, remote))
	if refused {
		f.dialsRefused++
	}
	budget, hasBudget := f.killAfter[[2]string{h.name, remote}]
	if hasBudget {
		delete(f.killAfter, [2]string{h.name, remote})
	}
	f.mu.Unlock()
	if refused {
		return nil, &net.OpError{Op: "dial", Net: network, Err: fmt.Errorf("faultnet: dial to %q refused", remote)}
	}
	nc, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	c := newConn(f, nc, h.name, remote)
	if hasBudget {
		c.framesLeft = budget
		c.hasBudget = true
	}
	return c, nil
}

type listener struct {
	net.Listener
	host *Host
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// The dialing host is unknown here (ephemeral source port); the dial
	// side's wrapper carries the pair attribution, and killing it resets
	// the shared TCP connection, which surfaces here as a read error.
	l.host.fabric.accepts.Add(1)
	return newConn(l.host.fabric, nc, l.host.name, ""), nil
}
