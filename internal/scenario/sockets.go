// The sockets engine: a real in-process cluster (core.SimCluster) over
// loopback TCP, with every node's channel transport wrapped in a faultnet
// Fabric so the schedule's kill/stall/partition verbs sever, stall and
// split the actual connections — and the reconnect supervisor, queue-drop
// accounting and WAL recovery paths earn their counters the hard way. Where
// the model engine computes, this engine measures; it is bounded to modest
// node counts by file descriptors and goroutines (see maxSocketNodes).
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/workload"

	mrand "math/rand"
)

// drainSettle is how long DrainAll waits for the wire to go quiet at the
// end of a sockets run before harvesting counters.
const drainSettle = 100 * time.Millisecond

// runSockets executes one sweep point on the real transport. branching > 0
// replaces the monitoring channel's flat mesh with a relay tree of that
// branching factor (every node relay-capable, so the tree is derived from ID
// order alone).
func runSockets(s *Scenario, n int, branching int) (PointResult, error) {
	var clk clock.Clock
	var vclk *clock.Virtual
	if s.Clock == ClockVirtual {
		vclk = clock.NewVirtual(clock.Epoch)
		clk = vclk
	} else {
		clk = clock.NewReal()
	}

	fabric := faultnet.NewFabric(s.Seed)

	dataDir := s.DataDir
	if dataDir == "auto" {
		tmp, err := os.MkdirTemp("", "dprocsim-")
		if err != nil {
			return PointResult{}, fmt.Errorf("scenario: temp data dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}
	disks := make(map[string]*faultnet.Disk)

	cluster, err := core.NewSimClusterWith(n, clk, s.Seed, 0, func(i int, cfg *core.Config) {
		cfg.Channel.Transport = fabric.Host(cfg.Name)
		cfg.Channel.InboxSize = s.Subscribers.Inbox
		cfg.Channel.Writers = s.Writers
		if s.Dispatch == "event" {
			cfg.Channel.Dispatch = kecho.EventDriven
		}
		if branching > 0 {
			cfg.RelayBranching = branching
			cfg.RelayRole = overlay.RoleRelay
		}
		cfg.TraceSample = s.TraceSample
		if dataDir != "" {
			d := faultnet.NewDisk(nil)
			disks[cfg.Name] = d
			cfg.StoreFS = d
			cfg.DataDir = filepath.Join(dataDir, cfg.Name)
		}
	})
	if err != nil {
		return PointResult{}, fmt.Errorf("scenario: building cluster: %w", err)
	}
	defer cluster.Close()

	// Schedules with queryall run real scatter-gather fan-outs, so every node
	// gets an admin server whose transport shares the node's fault identity —
	// a crashed, stalled or partitioned node fails its part of the query the
	// same way it drops its channel traffic.
	hasQueryAll := false
	for _, a := range s.Schedule {
		if a.Verb == "queryall" {
			hasQueryAll = true
		}
	}
	var admins []*adminproto.Server
	if hasQueryAll {
		for _, node := range cluster.Nodes {
			srv, err := adminproto.NewServerWith(node, "127.0.0.1:0", adminproto.ServerOptions{
				Timeout:      2 * time.Second,
				QueryTimeout: time.Second,
				Transport:    fabric.Host(node.Name()),
			})
			if err != nil {
				return PointResult{}, fmt.Errorf("scenario: admin server for %s: %w", node.Name(), err)
			}
			admins = append(admins, srv)
		}
		defer func() {
			for _, srv := range admins {
				_ = srv.Close()
			}
		}()
	}

	start := clk.Now()
	gens := make([]*workload.EventGen, n)
	for i, node := range cluster.Nodes {
		if err := applyFilters(node.DMon(), s); err != nil {
			return PointResult{}, err
		}
		gens[i] = workload.NewEventGen(workload.EventProfile{
			Rate:          s.Load.Rate,
			Payload:       s.Load.Payload,
			PayloadJitter: s.Load.PayloadJitter,
			BurstEvery:    s.Load.BurstEvery,
			BurstLen:      s.Load.BurstLen,
			BurstFactor:   s.Load.BurstFactor,
		}, s.Seed+int64(i)*104_729, start)
	}

	pt := PointResult{Nodes: n, Duration: s.Duration}
	churnRng := mrand.New(mrand.NewSource(s.Seed*1_000_003 + int64(n)))
	downUntil := make([]time.Time, n)
	var kills, revives, churnLeaves, churnRejoins, partitions, heals, diskFaults uint64
	var qaRuns, qaPartials, qaNodesOK, qaNodesFailed, qaErrors uint64
	crashed := make(map[string]bool)

	schedule := sortSchedule(s.Schedule)
	fired := 0

	steps := int(s.Duration / s.Tick)
	pt.Steps = steps
	churnEvery := 0
	if s.Churn.Fraction > 0 && s.Churn.Interval > 0 {
		churnEvery = int(s.Churn.Interval / s.Tick)
		if churnEvery < 1 {
			churnEvery = 1
		}
	}

	for step := 1; step <= steps; step++ {
		if vclk != nil {
			vclk.Advance(s.Tick)
		} else {
			time.Sleep(s.Tick)
		}
		now := clk.Now()
		elapsed := time.Duration(step) * s.Tick

		for fired < len(schedule) && schedule[fired].At <= elapsed {
			a := schedule[fired]
			fired++
			switch a.Verb {
			case "kill":
				fabric.Crash(a.Node)
				kills++
			case "revive":
				fabric.Allow(a.Node)
				revives++
			case "stall":
				fabric.StallWrites(a.Node, true)
			case "unstall":
				fabric.StallWrites(a.Node, false)
			case "partition":
				k := int(a.Value)
				for i := 0; i < n; i++ {
					group := "b"
					if i < k {
						group = "a"
					}
					fabric.SetGroup(NodeName(i), group)
				}
				fabric.Partition("a", "b")
				partitions++
			case "heal":
				fabric.Heal()
				heals++
			case "disk":
				d := disks[a.Node]
				switch a.Arg {
				case "enospc":
					d.LimitSpace(int(a.Value))
				case "failsync":
					d.FailSyncs(true)
				}
				diskFaults++
			case "queryall":
				// Coordinate from the first node that is still up; the dead
				// ones show up as failed entries in the merged result.
				coord := admins[0]
				for i := 0; i < n; i++ {
					if !crashed[NodeName(i)] && downUntil[i].IsZero() {
						coord = admins[i]
						break
					}
				}
				res, err := coord.QueryAllResult(a.Arg)
				qaRuns++
				if err != nil {
					qaErrors++
					break
				}
				qaNodesOK += uint64(res.OK)
				qaNodesFailed += uint64(res.Failed)
				if res.Partial {
					qaPartials++
				}
			}
		}

		if churnEvery > 0 && step%churnEvery == 0 {
			for i := 0; i < n; i++ {
				r := churnRng.Float64()
				if r < s.Churn.Fraction && downUntil[i].IsZero() {
					fabric.Crash(NodeName(i))
					downUntil[i] = now.Add(s.Churn.Down)
					churnLeaves++
				}
			}
		}
		for i := 0; i < n; i++ {
			if !downUntil[i].IsZero() && !now.Before(downUntil[i]) {
				fabric.Allow(NodeName(i))
				downUntil[i] = time.Time{}
				churnRejoins++
			}
		}

		_, published, _ := cluster.PollAll()
		pt.Reports += uint64(published)

		for i, node := range cluster.Nodes {
			mon := node.MonitoringChannel()
			if mon == nil {
				continue
			}
			for _, size := range gens[i].Tick(now, s.Tick) {
				pt.Events++
				if size < 1 {
					size = 1
				}
				_, _ = mon.Publish(make([]byte, size), kecho.PublishOpts{})
			}
		}
		// Yield to the writer goroutines so the wire keeps pace with the
		// virtual clock.
		if vclk != nil {
			time.Sleep(time.Millisecond)
		}
	}

	cluster.DrainAll(drainSettle)

	// Harvest: channel counters summed across nodes, propagation histograms
	// merged across observers, recovery counters from the transport and the
	// fault injectors.
	var prop obs.Snapshot
	var reconnects, redials, deadlineDrops, queueDrops, walErrors uint64
	var relayed, relayDups uint64
	for _, node := range cluster.Nodes {
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
		prop.Merge(node.Observer().PropDelay.Snapshot())
	}
	// Real deliveries are dispatched as they arrive.
	pt.Processed = pt.Deliveries
	pt.Prop = prop

	fstats := fabric.Stats()
	pt.Recovery = []RecoveryCounter{
		{"kills", kills},
		{"revives", revives},
		{"churn_leaves", churnLeaves},
		{"churn_rejoins", churnRejoins},
		{"partitions", partitions},
		{"heals", heals},
		{"disk_faults", diskFaults},
		{"queryall_runs", qaRuns},
		{"queryall_partials", qaPartials},
		{"queryall_nodes_ok", qaNodesOK},
		{"queryall_nodes_failed", qaNodesFailed},
		{"queryall_errors", qaErrors},
		{"reconnects", reconnects},
		{"redials", redials},
		{"deadline_drops", deadlineDrops},
		{"queue_drops", queueDrops},
		{"relayed", relayed},
		{"relay_dups", relayDups},
		{"conns_killed", fstats.ConnsKilled},
		{"dials_refused", fstats.DialsRefused},
		{"wal_errors", walErrors},
	}
	return pt, nil
}

// counter reads one channel counter, treating "not registered" as zero.
func counter(reg *metrics.Registry, label, name string) uint64 {
	v, _ := reg.Value("channel", label, name)
	return v
}
