package core

import (
	"fmt"
	"slices"
	"time"

	"dproc/internal/clock"
	"dproc/internal/kecho"
	"dproc/internal/registry"
	"dproc/internal/simres"
	"dproc/internal/wire"
)

// SimCluster is an in-process dproc cluster over loopback TCP, with every
// node backed by a simulated host. It is the workhorse of the experiment
// harness: real channels and real wire traffic, deterministic resources.
type SimCluster struct {
	Registry *registry.Server
	Nodes    []*Node
	Hosts    []*simres.Host
	// io is the I/O clock of the first node's channel transport: DrainAll's
	// tick and settle window run on it.
	io clock.Clock
	// formWakes counts formation's condition evaluations past the first of
	// each wait: how often formation woke (TestWaitsWakeOnEvents).
	formWakes int
}

// formTimeout bounds each of formation's waits, on the transport's I/O clock.
const formTimeout = 5 * time.Second

// RegistryHost names the registry server's host to NewSimClusterWith.
const RegistryHost = "registry"

// NewSimCluster builds a registry and n interconnected nodes named
// node0..node{n-1}. Padding sets the monitoring event padding on every node.
func NewSimCluster(n int, clk clock.Clock, seed int64, padding int) (*SimCluster, error) {
	return NewSimClusterWith(n, clk, seed, padding, nil, nil)
}

// NewSimClusterWith is NewSimCluster with every host's transport from
// transport (nil: plain TCP), the registry's under RegistryHost and each
// node's under its name, and a per-node configuration hook: customize (when
// non-nil) runs on each node's Config after the standard fields are filled
// in and before the node starts, so harnesses can set durable data
// directories or tracing rates per node.
func NewSimClusterWith(n int, clk clock.Clock, seed int64, padding int, transport func(host string) wire.Transport, customize func(i int, cfg *Config)) (*SimCluster, error) {
	if clk == nil {
		clk = clock.NewReal()
	}
	if transport == nil {
		transport = func(string) wire.Transport { return wire.TCP{} }
	}
	ln, err := transport(RegistryHost).Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: registry listen: %w", err)
	}
	regSrv := registry.NewServerWith(ln, registry.ServerOptions{})
	c := &SimCluster{Registry: regSrv, io: clock.NewReal()}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		host := simres.NewHost(name, clk, seed+int64(i)*7919)
		cfg := Config{
			Name:         name,
			RegistryAddr: regSrv.Addr(),
			Clock:        clk,
			Transport:    transport(name),
			Source:       host,
			Padding:      padding,
		}
		if customize != nil {
			customize(i, &cfg)
		}
		if i == 0 {
			c.io = clock.IO(cfg.Transport)
		}
		node, err := NewNode(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Hosts = append(c.Hosts, host)
		c.Nodes = append(c.Nodes, node)
	}
	if err := c.form(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// form waits for connectivity on both channels. The control channel is
// always a full mesh (n-1 peers); the monitoring channel's target is
// whatever its topology derives from the roster — everyone when flat, the
// tree neighbours under a relay overlay. Nodes join in creation order, which
// is not the overlay's sorted tree order, so each Join built its edges over a
// partial roster; on a virtual clock the reconnect supervisor (which would
// re-derive them) never fires during formation, so form runs one
// full-roster reconcile per node: RefreshPeers dials every final tree edge
// and drops every edge the final tree does not have, and formation ends on
// exactly the tree.
//
// A connection exists at its dialer when the dial returns, at its acceptor
// only once a reader has seen the hello. In between the acceptor believes
// the edge missing, and a reconcile there dials it a second time — a
// cross-dial, which the tie-break settles by closing one of the two together
// with whatever was already queued on it. So every hello lands before the
// node at the other end reconciles: "heard".
//
// Every wait is Channel.WaitPeers, woken by the peer-set change it waits
// for; nothing polls.
func (c *SimCluster) form() error {
	n := len(c.Nodes)
	mons := make(map[string]*kecho.Channel, n)
	for _, node := range c.Nodes {
		mons[node.Name()] = node.MonitoringChannel()
	}
	wait := func(node *Node, ch *kecho.Channel, ok func(peers []string) bool) error {
		first := true
		if ch.WaitPeers(formTimeout, func(peers []string) bool {
			if !first {
				c.formWakes++
			}
			first = false
			return ok(peers)
		}) {
			return nil
		}
		return fmt.Errorf("core: channel mesh did not form for %s", node.Name())
	}
	// heard: every peer Y of X's monitoring channel holds X.
	heard := func(node *Node) error {
		x := node.MonitoringChannel()
		for _, id := range x.Peers() {
			if err := wait(node, mons[id], func(peers []string) bool {
				return slices.Contains(peers, x.MemberID())
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, node := range c.Nodes {
		if err := heard(node); err != nil {
			return err
		}
	}
	for _, node := range c.Nodes {
		if dialed, _ := node.MonitoringChannel().RefreshPeers(); dialed > 0 {
			if err := heard(node); err != nil {
				return err
			}
		}
	}
	desired := make([][]string, n)
	for i, node := range c.Nodes {
		// Exactly the desired set, not merely that many peers: an edge this
		// node's neighbour pruned is gone here only once the reader has seen
		// the connection close.
		var err error
		if desired[i], err = node.MonitoringChannel().DesiredPeers(); err != nil {
			return err
		}
		if err := wait(node, node.MonitoringChannel(), func(peers []string) bool {
			return slices.Equal(peers, desired[i])
		}); err != nil {
			return err
		}
		if err := wait(node, node.ControlChannel(), func(peers []string) bool {
			return len(peers) >= n-1
		}); err != nil {
			return err
		}
	}
	// The waits ran one after another; the whole condition must hold at once.
	for i, node := range c.Nodes {
		if !slices.Equal(node.MonitoringChannel().Peers(), desired[i]) || len(node.ControlChannel().Peers()) < n-1 {
			return fmt.Errorf("core: channel mesh of %s changed after it formed", node.Name())
		}
	}
	return nil
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
//
// It stays a timed settle loop, where formation waits on events: an
// EventDriven channel has no inbox that could signal an arrival, and a
// notify per received frame would tax the receive path for the sake of this
// harness. Its tick and its settle window run on the I/O clock, because
// "the wire went quiet" is a property of the sockets — and a settle window
// on a virtual node clock nobody advances would never end.
func (c *SimCluster) DrainAll(settle time.Duration) int {
	total := 0
	idleSince := c.io.Now()
	for {
		n := 0
		for _, node := range c.Nodes {
			n += node.DMon().PollChannels()
			node.Refresh()
		}
		total += n
		if n > 0 {
			idleSince = c.io.Now()
		} else if c.io.Since(idleSince) > settle {
			return total
		}
		c.io.Sleep(time.Millisecond)
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
