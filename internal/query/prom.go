package query

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"dproc/internal/tsdb"
)

// ClusterExport renders Grafana-ready cluster-wide aggregates in the
// Prometheus text exposition format: on every scrape it scatter-gathers a
// trailing window per configured metric and emits one dproc_cluster_<metric>
// series per aggregation, plus meta-series describing the fan-out health.
// It is an obs.Appender-shaped hook, mounted after the node-local registry
// dump on the existing /metrics endpoint.
type ClusterExport struct {
	// Metrics are the history series to aggregate (e.g. loadavg, freemem).
	Metrics []string
	// Window is the trailing window per scrape (DefaultExportWindow when 0).
	Window time.Duration
	// Targets enumerates the nodes at scrape time (the coordinator's admin
	// roster). An error means the list may be incomplete — the coordinator
	// could not learn who the other nodes are — and marks the scrape
	// partial, as it marks a queryall.
	Targets func() ([]Target, error)
	// Fetch asks one node for its part.
	Fetch Fetch
	// Now anchors the trailing window: the node clock's Now, so every node
	// answers the same absolute window. Required.
	Now func() time.Time
	// Options tunes the fan-out (per-node timeout, concurrency).
	Options Options
}

// DefaultExportWindow is the trailing window a scrape aggregates.
const DefaultExportWindow = time.Minute

// exportQuantiles are the percentile series every metric exports; they all
// come from one merged histogram, so the extra quantiles cost no extra
// fan-outs.
var exportQuantiles = []struct {
	label string
	q     float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

// Append renders the cluster aggregates; it satisfies obs.Appender. Each
// metric costs two fan-outs per scrape: one arithmetic (avg, which also
// yields the sample count) and one histogram (p50/p95/p99 from a single
// merged snapshot).
func (e *ClusterExport) Append(w io.Writer) {
	if len(e.Metrics) == 0 {
		return
	}
	now := e.Now()
	window := e.Window
	if window <= 0 {
		window = DefaultExportWindow
	}
	targets, rosterErr := e.Targets()
	fmt.Fprintf(w, "# HELP dproc_cluster Cluster-wide aggregates over per-node history (window %s).\n", window)

	worst := Result{} // fan-out health across all queries this scrape
	for _, metric := range e.Metrics {
		avg, err := Run(context.Background(), targets,
			tsdb.Query{Agg: tsdb.AggAvg, Metric: metric, Last: window}, now, e.Fetch, e.Options)
		if err != nil {
			continue
		}
		if avg.HasValue {
			fmt.Fprintf(w, "dproc_cluster_%s{agg=\"avg\"} %s\n", metric, promFloat(avg.Value))
		}
		fmt.Fprintf(w, "dproc_cluster_query_samples{metric=%q} %d\n", metric, avg.Count)
		pct, err := Run(context.Background(), targets,
			tsdb.Query{Agg: tsdb.AggP99, Metric: metric, Last: window}, now, e.Fetch, e.Options)
		if err == nil && pct.Hist != nil && pct.Hist.Count > 0 {
			for _, eq := range exportQuantiles {
				fmt.Fprintf(w, "dproc_cluster_%s{agg=%q} %s\n",
					metric, eq.label, promFloat(pct.Hist.Quantile(eq.q)))
			}
		}
		if pct.Failed > worst.Failed {
			worst = pct
		} else if avg.Failed > worst.Failed {
			worst = avg
		} else if worst.Nodes == nil {
			worst = avg
		}
	}
	fmt.Fprintf(w, "dproc_cluster_query_nodes{status=\"ok\"} %d\n", worst.OK)
	fmt.Fprintf(w, "dproc_cluster_query_nodes{status=\"failed\"} %d\n", worst.Failed)
	partial := 0
	if worst.Partial || rosterErr != nil {
		partial = 1
	}
	fmt.Fprintf(w, "dproc_cluster_query_partial %d\n", partial)
}

// promFloat renders a float the way the exposition format expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
