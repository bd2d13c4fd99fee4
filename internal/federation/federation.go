// Package federation extends dproc toward the paper's stated future work —
// "using dproc in wide-area grids". A Gateway bridges one cluster's
// monitoring and control channels onto wide-area uplink channels: local
// monitoring reports are renamed under a cluster prefix
// ("clusterA/node0") and forwarded — or summarized into a single aggregate
// report per cluster, since the perturbation arguments that motivate
// filtering inside a cluster apply tenfold across a WAN. Control commands
// arriving from the grid side are routed inward: a grid manager can write
// "clusterA/node0"-addressed parameters or filters and the gateway delivers
// them onto the cluster's own control channel.
package federation

import (
	"errors"
	"strings"
	"sync"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
)

// Mode selects how a gateway exports its cluster.
type Mode int

// Gateway export modes.
const (
	// Forward republishes every node's report under "<cluster>/<node>".
	Forward Mode = iota
	// Aggregate publishes one summary report named "<cluster>" combining
	// all local nodes (mean loads, summed capacities, min availability).
	Aggregate
)

// String names the mode.
func (m Mode) String() string {
	if m == Aggregate {
		return "aggregate"
	}
	return "forward"
}

// Sep joins cluster and node names in exported identifiers.
const Sep = "/"

// SplitNodeName splits an exported name into cluster and node parts; node
// is empty for aggregate reports.
func SplitNodeName(exported string) (cluster, node string) {
	if i := strings.Index(exported, Sep); i >= 0 {
		return exported[:i], exported[i+len(Sep):]
	}
	return exported, ""
}

// Gateway bridges one cluster to the wide area.
type Gateway struct {
	cluster string
	clk     clock.Clock
	mode    Mode
	period  time.Duration

	localMon *kecho.Channel
	localCtl *kecho.Channel
	upMon    *kecho.Channel
	upCtl    *kecho.Channel

	mu       sync.Mutex
	store    *dmon.Store
	nextPush time.Time
	pushed   uint64
	routed   uint64
}

// Config configures a gateway.
type Config struct {
	// ClusterName is the prefix this cluster's data is exported under.
	ClusterName string
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Mode selects Forward or Aggregate export.
	Mode Mode
	// Period is the minimum interval between uplink pushes; local reports
	// are coalesced between pushes (0 means 5 s — WANs want sparser data
	// than the cluster's 1 s default).
	Period time.Duration
	// LocalMon and LocalCtl are the cluster-side channels; UpMon and UpCtl
	// the wide-area channels. LocalCtl and UpCtl may be nil to disable
	// inward control routing.
	LocalMon, LocalCtl, UpMon, UpCtl *kecho.Channel
}

// NewGateway wires the bridge and subscribes to both sides.
func NewGateway(cfg Config) (*Gateway, error) {
	if cfg.ClusterName == "" {
		return nil, errors.New("federation: cluster name required")
	}
	if strings.Contains(cfg.ClusterName, Sep) {
		return nil, errors.New("federation: cluster name may not contain the separator")
	}
	if cfg.LocalMon == nil || cfg.UpMon == nil {
		return nil, errors.New("federation: local and uplink monitoring channels required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	period := cfg.Period
	if period == 0 {
		period = 5 * time.Second
	}
	g := &Gateway{
		cluster:  cfg.ClusterName,
		clk:      clk,
		mode:     cfg.Mode,
		period:   period,
		localMon: cfg.LocalMon,
		localCtl: cfg.LocalCtl,
		upMon:    cfg.UpMon,
		upCtl:    cfg.UpCtl,
		store:    dmon.NewStore(),
	}
	// Local monitoring accumulates in the gateway's store until the next
	// uplink push.
	g.localMon.Subscribe(func(ev kecho.Event) {
		report, err := metrics.DecodeReport(ev.Payload)
		if err != nil {
			return
		}
		g.store.Update(report)
	})
	// Wide-area control events addressed to this cluster route inward.
	if g.upCtl != nil && g.localCtl != nil {
		g.upCtl.Subscribe(func(ev kecho.Event) {
			target, text, err := dmon.DecodeControl(ev.Payload)
			if err != nil {
				return
			}
			clusterName, node := SplitNodeName(target)
			if clusterName != g.cluster {
				return
			}
			payload := dmon.EncodeControl(node, text)
			if node == "" {
				_, _ = g.localCtl.Publish(payload, kecho.PublishOpts{})
			} else if err := g.localCtl.SubmitTo(node, payload); err != nil {
				return
			}
			g.mu.Lock()
			g.routed++
			g.mu.Unlock()
		})
	}
	return g, nil
}

// ClusterName returns the export prefix.
func (g *Gateway) ClusterName() string { return g.cluster }

// Stats reports uplink pushes and inward-routed control commands.
func (g *Gateway) Stats() (pushed, routed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pushed, g.routed
}

// Poll drains both sides' inboxes and pushes uplink if the period elapsed.
// Call it from the site's poll loop, like d-mon's own per-second poll.
func (g *Gateway) Poll() (pushedNow int, err error) {
	g.localMon.Poll()
	if g.upCtl != nil {
		g.upCtl.Poll()
	}
	if g.localCtl != nil {
		g.localCtl.Poll()
	}
	now := g.clk.Now()
	g.mu.Lock()
	due := !now.Before(g.nextPush)
	if due {
		g.nextPush = now.Add(g.period)
	}
	g.mu.Unlock()
	if !due {
		return 0, nil
	}
	return g.PushOnce()
}

// PushOnce exports the current cluster state uplink immediately.
func (g *Gateway) PushOnce() (int, error) {
	now := g.clk.Now()
	nodes := g.store.Nodes()
	if len(nodes) == 0 {
		return 0, nil
	}
	var sent int
	if g.mode == Forward {
		for _, node := range nodes {
			report := &metrics.Report{Node: g.cluster + Sep + node, Time: now}
			for _, id := range g.store.Metrics(node) {
				if s, ok := g.store.Get(node, id); ok {
					report.Samples = append(report.Samples, s)
				}
			}
			if len(report.Samples) == 0 {
				continue
			}
			if _, err := g.upMon.Publish(report.Encode(), kecho.PublishOpts{}); err != nil {
				return sent, err
			}
			sent++
		}
	} else {
		report := g.aggregate(now, nodes)
		if len(report.Samples) > 0 {
			if _, err := g.upMon.Publish(report.Encode(), kecho.PublishOpts{}); err != nil {
				return sent, err
			}
			sent++
		}
	}
	g.mu.Lock()
	g.pushed += uint64(sent)
	g.mu.Unlock()
	return sent, nil
}

// aggKind says how a metric combines across nodes.
func aggKind(id metrics.ID) string {
	switch id {
	case metrics.FREEMEM, metrics.TOTALMEM, metrics.DISKREADS, metrics.DISKWRITES,
		metrics.SECTORSREAD, metrics.SECTORSWRITTEN, metrics.DISKUSAGE,
		metrics.NETBW, metrics.NETRETRANS, metrics.NETLOST,
		metrics.CACHE_MISS, metrics.INSTRUCTIONS, metrics.CYCLES, metrics.POWERDRAW:
		return "sum"
	case metrics.NETAVAIL, metrics.BATTERY:
		// A cluster is as reachable as its best link; as alive as its
		// weakest battery.
		return "min"
	default: // LOADAVG, RUNQUEUE, NETRTT, NETDELAY
		return "mean"
	}
}

// aggregate combines every node's latest samples into one cluster report.
func (g *Gateway) aggregate(now time.Time, nodes []string) *metrics.Report {
	report := &metrics.Report{Node: g.cluster, Time: now}
	for _, id := range metrics.AllIDs() {
		var sum, min float64
		count := 0
		for _, node := range nodes {
			v, ok := g.store.Value(node, id)
			if !ok {
				continue
			}
			if count == 0 || v < min {
				min = v
			}
			sum += v
			count++
		}
		if count == 0 {
			continue
		}
		var v float64
		switch aggKind(id) {
		case "sum":
			v = sum
		case "min":
			v = min
		default:
			v = sum / float64(count)
		}
		report.Samples = append(report.Samples, metrics.Sample{ID: id, Value: v, Time: now})
	}
	return report
}
