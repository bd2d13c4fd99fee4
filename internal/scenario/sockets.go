// The sockets backend: a real in-process cluster (core.SimCluster) over
// loopback TCP, with every host's transport a faultnet Fabric host, so the
// schedule's kill/stall/partition verbs sever, stall and split the actual
// connections — and the reconnect supervisor, queue-drop accounting and WAL
// recovery paths earn their counters the hard way. Where the model backend
// computes, this one measures; it is bounded to modest node counts by file
// descriptors and goroutines (see maxSocketNodes). The clock is the loop's
// virtual one, so its timestamps are quantised to the tick: it reports
// counters and no propagation latency (bench/ measures latency on the wall
// clock).
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/overlay"
	"dproc/internal/wire"
)

// drainSettle is how long DrainAll waits for the wire to go quiet at the
// end of a sockets run before harvesting counters.
const drainSettle = 100 * time.Millisecond

type socketsBackend struct {
	down    downSet
	fabric  *faultnet.Fabric
	cluster *core.SimCluster
	// admins is non-nil only when the schedule has a queryall.
	admins []*adminproto.Server
	disks  map[string]*faultnet.Disk
	// tmpDir is the directory data_dir = "auto" created, removed by close.
	tmpDir string

	diskFaults                                             uint64
	qaRuns, qaPartials, qaNodesOK, qaNodesFailed, qaErrors uint64
}

// newSocketsBackend builds one sweep point's cluster. branching > 0 replaces
// the monitoring channel's flat mesh with a relay tree of that branching
// factor (every node relay-capable, so the tree is derived from ID order
// alone).
func newSocketsBackend(s *Scenario, n, branching int, clk *clock.Virtual, down downSet) (backend, error) {
	b := &socketsBackend{down: down, fabric: faultnet.NewFabric(s.Seed), disks: make(map[string]*faultnet.Disk)}
	dataDir := s.DataDir
	if dataDir == "auto" {
		tmp, err := os.MkdirTemp("", "dprocsim-")
		if err != nil {
			return nil, fmt.Errorf("scenario: temp data dir: %w", err)
		}
		b.tmpDir, dataDir = tmp, tmp
	}

	var err error
	host := func(name string) wire.Transport { return b.fabric.Host(name) }
	b.cluster, err = core.NewSimClusterWith(n, clk, s.Seed, 0, host, func(i int, cfg *core.Config) {
		cfg.Channel.InboxSize = s.Subscribers.Inbox
		cfg.Channel.Writers = s.Writers
		if s.Dispatch == "event" {
			cfg.Channel.Dispatch = kecho.EventDriven
		}
		if branching > 0 {
			cfg.RelayBranching = branching
			cfg.RelayRole = overlay.RoleRelay
		}
		// Admin phases and the queryall per-node budget stay short, so a
		// down node fails its part quickly.
		cfg.AdminTimeout = 2 * time.Second
		cfg.QueryTimeout = time.Second
		if dataDir != "" {
			d := faultnet.NewDisk(nil)
			b.disks[cfg.Name] = d
			cfg.StoreFS = d
			cfg.DataDir = filepath.Join(dataDir, cfg.Name)
		}
	})
	if err != nil {
		b.close()
		return nil, fmt.Errorf("scenario: building cluster: %w", err)
	}
	for _, node := range b.cluster.Nodes {
		if err := applyFilters(node.DMon(), s); err != nil {
			b.close()
			return nil, err
		}
	}

	// Schedules with queryall run real scatter-gather fan-outs, so every node
	// gets an admin server, which listens and dials through the node's own
	// fabric host — a node that is down, stalled or partitioned fails its
	// part of the query the same way it drops its channel traffic.
	if slices.ContainsFunc(s.Schedule, func(a Action) bool { return a.Verb == "queryall" }) {
		for _, node := range b.cluster.Nodes {
			srv, err := adminproto.NewServer(node, "127.0.0.1:0")
			if err != nil {
				b.close()
				return nil, fmt.Errorf("scenario: admin server for %s: %w", node.Name(), err)
			}
			b.admins = append(b.admins, srv)
		}
	}
	return b, nil
}

func (b *socketsBackend) apply(a Action) {
	switch a.Verb {
	case "stall":
		b.fabric.StallWrites(a.Node, true)
	case "unstall":
		b.fabric.StallWrites(a.Node, false)
	case "partition":
		for i := range b.cluster.Nodes {
			group := "b"
			if i < int(a.Value) {
				group = "a"
			}
			b.fabric.SetGroup(NodeName(i), group)
		}
		b.fabric.Partition("a", "b")
	case "heal":
		b.fabric.Heal()
	case "disk":
		d := b.disks[a.Node]
		switch a.Arg {
		case "enospc":
			d.LimitSpace(int(a.Value))
		case "failsync":
			d.FailSyncs(true)
		}
		b.diskFaults++
	case "queryall":
		// Coordinate from the first node that is still up; the down ones
		// show up as failed entries in the merged result.
		coord := b.admins[0]
		for i, srv := range b.admins {
			if b.down.up(i) {
				coord = srv
				break
			}
		}
		res, err := coord.QueryAllResult(a.Arg)
		b.qaRuns++
		if err != nil {
			b.qaErrors++
			break
		}
		b.qaNodesOK += uint64(res.OK)
		b.qaNodesFailed += uint64(res.Failed)
		if res.Partial {
			b.qaPartials++
		}
	}
}

func (b *socketsBackend) setDown(i int, down bool) {
	if down {
		b.fabric.Crash(NodeName(i))
	} else {
		b.fabric.Allow(NodeName(i))
	}
}

func (b *socketsBackend) publish(i int, sizes []int) bool {
	node := b.cluster.Nodes[i]
	_, reported, _ := node.PollOnce()
	if mon := node.MonitoringChannel(); mon != nil {
		for _, size := range sizes {
			_, _ = mon.Publish(make([]byte, max(size, 1)), kecho.PublishOpts{})
		}
	}
	return reported
}

// endTick yields to the writer goroutines for a real millisecond so the wire
// keeps pace with the virtual clock.
func (b *socketsBackend) endTick() { time.Sleep(time.Millisecond) }

// harvest sums the channel counters across nodes after the wire has gone
// quiet, then the recovery counters of the transport and the fault injectors.
func (b *socketsBackend) harvest(pt *PointResult) {
	b.cluster.DrainAll(drainSettle)

	var reconnects, redials, deadlineDrops, queueDrops, walErrors uint64
	var relayed, relayDups uint64
	for _, node := range b.cluster.Nodes {
		reg := node.Metrics()
		for _, ch := range []string{dmon.MonitoringChannel, dmon.ControlChannel} {
			pt.Deliveries += counter(reg, ch, "events_recv")
			pt.BytesSent += counter(reg, ch, "bytes_sent")
			pt.Drops += counter(reg, ch, "dropped")
			pt.Skips += counter(reg, ch, "join_skips")
			reconnects += counter(reg, ch, "reconnects")
			redials += counter(reg, ch, "redials")
			deadlineDrops += counter(reg, ch, "deadline_drops")
			queueDrops += counter(reg, ch, "queue_drops")
			relayed += counter(reg, ch, "relayed")
			relayDups += counter(reg, ch, "relay_dups")
		}
		if v, ok := reg.Value("tsdb", "", "wal_errors"); ok {
			walErrors += v
		}
	}
	// Real deliveries are dispatched as they arrive.
	pt.Processed = pt.Deliveries

	fstats := b.fabric.Stats()
	pt.Recovery = append(pt.Recovery,
		RecoveryCounter{"disk_faults", b.diskFaults},
		RecoveryCounter{"queryall_runs", b.qaRuns},
		RecoveryCounter{"queryall_partials", b.qaPartials},
		RecoveryCounter{"queryall_nodes_ok", b.qaNodesOK},
		RecoveryCounter{"queryall_nodes_failed", b.qaNodesFailed},
		RecoveryCounter{"queryall_errors", b.qaErrors},
		RecoveryCounter{"reconnects", reconnects},
		RecoveryCounter{"redials", redials},
		RecoveryCounter{"deadline_drops", deadlineDrops},
		RecoveryCounter{"queue_drops", queueDrops},
		RecoveryCounter{"relayed", relayed},
		RecoveryCounter{"relay_dups", relayDups},
		RecoveryCounter{"conns_killed", fstats.ConnsKilled},
		RecoveryCounter{"dials_refused", fstats.DialsRefused},
		RecoveryCounter{"wal_errors", walErrors},
	)
}

// close stops the admin servers before the cluster they serve, then removes
// the temporary data directory.
func (b *socketsBackend) close() {
	for _, srv := range b.admins {
		_ = srv.Close()
	}
	if b.cluster != nil {
		b.cluster.Close()
	}
	if b.tmpDir != "" {
		_ = os.RemoveAll(b.tmpDir)
	}
}

// counter reads one channel counter, treating "not registered" as zero.
func counter(reg *metrics.Registry, label, name string) uint64 {
	v, _ := reg.Value("channel", label, name)
	return v
}
