package kecho

import (
	"math/rand"
	"sort"
	"time"

	"dproc/internal/clock"
	"dproc/internal/registry"
)

// peerset: which members this one holds connections to. reconcile decides
// it and addPeerLocked is the only place a connection enters the set; Join,
// RefreshPeers and the reconnect supervisor differ only in where their
// roster comes from and which counters they feed.

// addPeerLocked registers p as the connection to member p.id and reports
// whether it did; if not — the channel has closed, or p lost a cross-dial —
// p is closed. The caller holds c.mu. The write side needs no per-peer
// start: the shared writer pool services p once a producer schedules it.
//
// A member already connected is normally replaced: the end that opened the
// old connection has opened a new one, so it has given up on the old. But
// when each end opened one of the two (both dialed at once), "newest wins"
// has each end keep the connection the other closes; both ends then keep
// the one the lower member ID dialed. The cost: a restarted higher-ID member
// is refused until this end has seen its old connection to it die, and the
// supervisor's next round gets through.
func (c *Channel) addPeerLocked(p *peer) bool {
	if c.closed {
		p.close()
		return false
	}
	if old, ok := c.peers[p.id]; ok {
		if old.dialed != p.dialed && old.dialed == (c.id < p.id) {
			p.close()
			return false
		}
		old.close()
	}
	c.peers[p.id] = p
	c.peersChangedLocked()
	return true
}

func (c *Channel) removePeer(p *peer) {
	c.mu.Lock()
	if cur, ok := c.peers[p.id]; ok && cur == p {
		delete(c.peers, p.id)
		c.peersChangedLocked()
	}
	c.mu.Unlock()
	p.close()
	// Account everything still queued as dropped. The scheduled token
	// arbitrates, under the peer lock: if a writer holds it, whatever is
	// still queued reaches that writer, whose next write fails on the
	// closed conn and whose exit path drains; otherwise this adopts the
	// token (permanently — it is never released, so the dead peer cannot
	// re-enter the ring) and drains here. Producers cannot enqueue anymore:
	// the map delete above and every enqueue serialize on c.mu.
	p.qmu.Lock()
	adopt := !p.scheduled
	p.scheduled = true
	p.qmu.Unlock()
	if adopt {
		c.drainDeadPeer(p)
	}
}

// peersChangedLocked wakes every WaitPeers waiter: it closes the channel
// they hold and puts a fresh one in its place. The caller holds c.mu and
// has just changed c.peers.
func (c *Channel) peersChangedLocked() {
	close(c.peersChanged)
	c.peersChanged = make(chan struct{})
	c.peerChanges.Add(1)
}

// Peers returns the IDs of currently connected peers, sorted.
func (c *Channel) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerIDsLocked()
}

func (c *Channel) peerIDsLocked() []string {
	out := make([]string, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// WaitPeers blocks until ok holds for the channel's peer set — the sorted
// IDs Peers returns — reporting whether it did before timeout passed on the
// transport's I/O clock or the channel closed. ok runs outside the channel
// lock, once up front and then once per change to the peer set: the wait
// sleeps on that change and on one guard timer, armed on the first miss, and
// polls nothing.
func (c *Channel) WaitPeers(timeout time.Duration, ok func(peers []string) bool) bool {
	var expired chan struct{}
	for {
		c.mu.Lock()
		peers, changed := c.peerIDsLocked(), c.peersChanged
		c.mu.Unlock()
		if ok(peers) {
			return true
		}
		if expired == nil {
			expired = make(chan struct{})
			guard := c.io.AfterFunc(timeout, func() { close(expired) })
			defer guard.Stop()
		}
		select {
		case <-changed:
		case <-expired:
			return false
		case <-c.stop:
			return false
		}
	}
}

// WaitForPeers blocks until the channel has at least n connected peers or
// the timeout elapses on the I/O clock, reporting success. Tests, harnesses
// and benchmarks use it to avoid racing the mesh construction.
func (c *Channel) WaitForPeers(n int, timeout time.Duration) bool {
	return c.WaitPeers(timeout, func(peers []string) bool { return len(peers) >= n })
}

// neighbors is the one derivation of the peer set. Given a roster that
// includes this member, it returns the members the topology pairs it with
// and, on a forwarding topology, the connected peers that are not among
// them. The full mesh never prunes: every member is a neighbour there, so
// "connected but not in the roster" only means the roster is behind — a
// registry that restarted and has not heard from everyone yet, or a peer
// that runs without a supervisor and so never heartbeats.
func (c *Channel) neighbors(roster []registry.Member) (want []registry.Member, extra []*peer) {
	want = c.opts.Topology.Neighbors(c.id, roster)
	if c.maxHops > 0 {
		wanted := make(map[string]bool, len(want))
		for _, m := range want {
			wanted[m.ID] = true
		}
		c.mu.Lock()
		for id, p := range c.peers {
			if !wanted[id] {
				extra = append(extra, p)
			}
		}
		c.mu.Unlock()
	}
	return want, extra
}

// dialTally is what one reconcile pass did about missing neighbours.
type dialTally struct {
	tried  int   // dials attempted
	kept   int   // connections the peer set took (see dialPeer)
	failed int   // dials that returned an error
	err    error // the last of those errors
}

// reconcile brings the peer set to what the topology derives from roster:
// it dials every neighbour not connected, then drops the extras. The dials
// come first so that a member being re-parented holds its old edges until
// the new ones are up; records still queued on a pruned edge drain into
// QueueDrops through the usual teardown accounting. On a relay tree this is
// the re-parenting mechanism: when the registry ages a dead relay out,
// every survivor's next pass converges on the tree over the members left.
func (c *Channel) reconcile(roster []registry.Member) dialTally {
	var t dialTally
	want, extra := c.neighbors(roster)
	for _, m := range want {
		// Re-checked before every dial, not once per pass: a neighbour that
		// connected to us meanwhile must not be dialed into a cross-dial.
		c.mu.Lock()
		_, have := c.peers[m.ID]
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return t
		}
		if have {
			continue
		}
		t.tried++
		kept, err := c.dialPeer(m)
		switch {
		case err != nil:
			t.failed++
			t.err = err
		case kept:
			t.kept++
		}
	}
	for _, p := range extra {
		c.removePeer(p)
	}
	return t
}

// refresh reconciles against the registry's current roster. The error is a
// failed lookup (or a closed channel); dial failures are in the tally.
func (c *Channel) refresh() (dialTally, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return dialTally{}, errClosed
	}
	roster, err := c.reg.Lookup(c.name)
	if err != nil {
		return dialTally{}, err
	}
	return c.reconcile(roster), nil
}

// RefreshPeers runs one reconcile against the registry's current roster —
// what a supervisor round does, on demand. It returns how many new
// connections were established and kept.
func (c *Channel) RefreshPeers() (int, error) {
	t, err := c.refresh()
	if err == nil {
		err = t.err
	}
	return t.kept, err
}

// DesiredPeers reports, from the registry's current roster, the sorted IDs
// of the members this channel should be connected to: every other member on
// a full mesh, the tree neighbours on a relay tree. It is the set reconcile
// converges toward.
func (c *Channel) DesiredPeers() ([]string, error) {
	roster, err := c.reg.Lookup(c.name)
	if err != nil {
		return nil, err
	}
	want, _ := c.neighbors(roster)
	out := make([]string, len(want))
	for i, m := range want {
		out[i] = m.ID
	}
	sort.Strings(out)
	return out, nil
}

// supervise is the self-healing loop: every interval it heartbeats the
// registry (keeping this member alive and transparently re-registering
// after a registry restart) and reconciles the peer set with the roster.
// Failures back the loop off exponentially with jitter; a clean round
// resets it to the base interval.
func (c *Channel) supervise() {
	defer c.wg.Done()
	seed := c.opts.Seed
	for _, b := range []byte(c.name + "/" + c.id) {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	base, max := c.opts.ReconnectInterval, c.opts.ReconnectMax
	backoff := base
	for {
		// Jitter desynchronizes members so a recovering registry or peer is
		// not hit by the whole cluster in the same instant.
		d := backoff + time.Duration(rng.Int63n(int64(backoff)/4+1))
		if !clock.Wait(c.clk, d, c.stop) {
			return
		}
		if c.superviseOnce() {
			backoff = base
		} else if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

// superviseOnce performs one heartbeat + reconcile round, reporting whether
// it completed without errors.
func (c *Channel) superviseOnce() bool {
	_, hbErr := c.reg.HeartbeatAs(c.name, c.id, c.ln.Addr().String(), c.opts.Role)
	t, err := c.refresh()
	c.redials.Add(uint64(t.tried))
	c.reconnects.Add(uint64(t.kept))
	return hbErr == nil && err == nil && t.failed == 0
}
