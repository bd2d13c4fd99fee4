package core

import (
	"fmt"
	"slices"
	"time"

	"dproc/internal/clock"
	"dproc/internal/kecho"
	"dproc/internal/registry"
	"dproc/internal/simres"
)

// SimCluster is an in-process dproc cluster over loopback TCP, with every
// node backed by a simulated host. It is the workhorse of the experiment
// harness: real channels and real wire traffic, deterministic resources.
type SimCluster struct {
	Registry *registry.Server
	Nodes    []*Node
	Hosts    []*simres.Host
	clk      clock.Clock
}

// NewSimCluster builds a registry and n interconnected nodes named
// node0..node{n-1}. Padding sets the monitoring event padding on every node.
func NewSimCluster(n int, clk clock.Clock, seed int64, padding int) (*SimCluster, error) {
	return NewSimClusterWith(n, clk, seed, padding, nil)
}

// NewSimClusterWith is NewSimCluster with a per-node configuration hook:
// customize (when non-nil) runs on each node's Config after the standard
// fields are filled in and before the node starts, so harnesses can inject
// fault-injection transports (faultnet), durable data directories or
// tracing rates per node. The registry connection itself is not
// customizable — control-plane traffic stays on plain TCP.
func NewSimClusterWith(n int, clk clock.Clock, seed int64, padding int, customize func(i int, cfg *Config)) (*SimCluster, error) {
	if clk == nil {
		clk = clock.NewReal()
	}
	regSrv, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &SimCluster{Registry: regSrv, clk: clk}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		host := simres.NewHost(name, clk, seed+int64(i)*7919)
		cfg := Config{
			Name:         name,
			RegistryAddr: regSrv.Addr(),
			Clock:        clk,
			Source:       host,
			Padding:      padding,
		}
		if customize != nil {
			customize(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Hosts = append(c.Hosts, host)
		c.Nodes = append(c.Nodes, node)
	}
	// Wait for connectivity on both channels before returning. The control
	// channel is always a full mesh (n-1 peers); the monitoring channel's
	// target is whatever its topology derives from the roster — everyone
	// when flat, the tree neighbours under a relay overlay. Nodes join in
	// creation order, which is not the overlay's sorted tree order, so each
	// Join built its edges over a partial roster; on a virtual clock the
	// reconnect supervisor (which would re-derive them) never fires during
	// this real-time wait, so run one full-roster reconcile per node:
	// RefreshPeers dials every final tree edge and drops every edge the
	// final tree does not have, and formation ends on exactly the tree.
	//
	// A connection exists at its dialer when the dial returns, at its
	// acceptor only once a reader has seen the hello. In between the acceptor
	// believes the edge missing, and a reconcile there dials it a second
	// time — a cross-dial, which the tie-break settles by closing one of the
	// two together with whatever was already queued on it (the first report
	// after formation, about 1 formation in 200). So every hello lands
	// before the node at the other end reconciles.
	mons := make(map[string]*kecho.Channel, n)
	for _, node := range c.Nodes {
		mons[node.Name()] = node.MonitoringChannel()
	}
	formed := func(node *Node, cond func(mon *kecho.Channel) bool) error {
		deadline := time.Now().Add(5 * time.Second)
		for !cond(node.MonitoringChannel()) {
			if time.Now().After(deadline) {
				c.Close()
				return fmt.Errorf("core: channel mesh did not form for %s", node.Name())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	heard := func(mon *kecho.Channel) bool {
		for _, id := range mon.Peers() {
			if !slices.Contains(mons[id].Peers(), mon.MemberID()) {
				return false
			}
		}
		return true
	}
	for _, node := range c.Nodes {
		if err := formed(node, heard); err != nil {
			return nil, err
		}
	}
	for _, node := range c.Nodes {
		if dialed, _ := node.MonitoringChannel().RefreshPeers(); dialed > 0 {
			if err := formed(node, heard); err != nil {
				return nil, err
			}
		}
	}
	for _, node := range c.Nodes {
		// Exactly the desired set, not merely that many peers: an edge this
		// node's neighbour pruned is gone here only once the reader has seen
		// the connection close.
		desired, err := node.MonitoringChannel().DesiredPeers()
		if err == nil {
			err = formed(node, func(mon *kecho.Channel) bool {
				return slices.Equal(mon.Peers(), desired) && len(node.ControlChannel().Peers()) >= n-1
			})
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Size returns the number of nodes.
func (c *SimCluster) Size() int { return len(c.Nodes) }

// PollAll runs one poll iteration on every node and returns the total
// events received and reports published across the cluster.
func (c *SimCluster) PollAll() (received int, published int, err error) {
	for _, n := range c.Nodes {
		r, p, e := n.PollOnce()
		received += r
		if p {
			published++
		}
		if e != nil && err == nil {
			err = e
		}
	}
	return received, published, err
}

// DrainAll polls all nodes' channels repeatedly until no events arrive for
// a settle window, bounding distribution latency in tests and experiments.
func (c *SimCluster) DrainAll(settle time.Duration) int {
	total := 0
	idleSince := time.Now()
	for {
		n := 0
		for _, node := range c.Nodes {
			n += node.DMon().PollChannels()
			node.Refresh()
		}
		total += n
		if n > 0 {
			idleSince = time.Now()
		} else if time.Since(idleSince) > settle {
			return total
		}
		time.Sleep(time.Millisecond)
	}
}

// Close shuts down every node and the registry.
func (c *SimCluster) Close() {
	for _, n := range c.Nodes {
		_ = n.Close()
	}
	if c.Registry != nil {
		_ = c.Registry.Close()
	}
}
