// Health counters: the degradation-visibility side of the fault model. The
// transport stack (kecho channels, registry client) counts its recovery work
// — reconnects, redials, expired members, deadline drops — and nodes surface
// the aggregate through the /proc/cluster/<node>/health pseudo-file, so an
// operator can cat one file and see how hard the mesh is working to stay
// connected.
//
// The counters themselves live in the node's unified Registry (subsystems
// "channel" and "registry"); Health is a rendering view over it, so the
// health file, the stats file and the Prometheus exporter can never drift
// apart.
package metrics

import (
	"fmt"
	"strings"
)

// Health renders one node's self-healing report from its metric registry.
type Health struct {
	Node string
	reg  *Registry
}

// NewHealth returns the health view for a node's registry.
func NewHealth(node string, reg *Registry) Health {
	return Health{Node: node, reg: reg}
}

// transportEntry selects the transport-liveness subset of the registry:
// channel and registry-client counters/gauges, excluding the observability
// distributions (those belong to the stats file).
func transportEntry(e Entry) bool {
	return e.Kind != KindDist && (e.Subsystem == "channel" || e.Subsystem == "registry")
}

// Render formats the health report in /proc style: one "key value" line per
// counter, channel sections prefixed by the channel name, in registration
// order (monitoring channel first, registry client last).
func (h Health) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "node %s\n", h.Node)
	if h.reg == nil {
		return sb.String()
	}
	h.reg.Each(func(e Entry) {
		if !transportEntry(e) {
			return
		}
		if e.Label != "" {
			fmt.Fprintf(&sb, "%s %s %s %d\n", e.Subsystem, e.Label, e.Name, e.Value())
		} else {
			fmt.Fprintf(&sb, "%s %s %d\n", e.Subsystem, e.Name, e.Value())
		}
	})
	return sb.String()
}
