package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"dproc/internal/tsdb"
)

// Target names one node to fan a query out to.
type Target struct {
	Node string // cluster node name
	Addr string // admin endpoint
}

// Fetch asks one node for its part of a normalized query. Implementations
// must honor ctx (its deadline is the per-node timeout): a fetch that
// ignores cancellation turns a dead node back into a coordinator hang. Run
// fails a node whose part contradicts the query it was asked (Part.check).
type Fetch func(ctx context.Context, t Target, q tsdb.Query) (Part, error)

// Fan-out defaults.
const (
	DefaultTimeout     = 2 * time.Second
	DefaultConcurrency = 16
)

// Options tunes one scatter-gather run.
type Options struct {
	// Timeout bounds each per-node fetch (DefaultTimeout when 0). The whole
	// fan-out completes within roughly ceil(targets/Concurrency)·Timeout
	// even if every node is dead.
	Timeout time.Duration
	// Concurrency bounds in-flight fetches (DefaultConcurrency when 0), so
	// querying a large cluster does not open every admin connection at once.
	Concurrency int
}

// NodeStatus is one node's line in the result: its contribution size, how
// long its fetch took, and the error for failed nodes.
type NodeStatus struct {
	Node    string
	Addr    string
	Err     string // "" = ok
	Count   int64
	Elapsed time.Duration
}

// OK reports whether the node answered.
func (ns NodeStatus) OK() bool { return ns.Err == "" }

// Result is a merged cluster-wide aggregate with per-node provenance.
type Result struct {
	// Query is the normalized query every node answered (absolute window,
	// tier windows pre-widened).
	Query tsdb.Query
	// Value is the merged aggregate; valid only when HasValue (at least one
	// node contributed samples).
	Value    float64
	HasValue bool
	// Count totals the samples aggregated across contributing nodes.
	Count int64
	// OK/Failed count nodes; Partial marks results merged from fewer nodes
	// than were asked.
	OK, Failed int
	Partial    bool
	// Nodes has one entry per target, in target order.
	Nodes []NodeStatus
	// Hist is the merged histogram for percentile queries (nil otherwise);
	// callers can read additional quantiles from it without re-querying.
	Hist *tsdb.Hist
	// Elapsed is the wall time of the whole fan-out.
	Elapsed time.Duration
}

// Run normalizes q against now, fans it out to every target through fetch
// (bounded concurrency, per-node timeout) and merges the parts. It returns
// an error only for an unusable query or empty target list; node failures
// are annotated in the Result instead, marking it Partial.
func Run(ctx context.Context, targets []Target, q tsdb.Query, now time.Time, fetch Fetch, opts Options) (Result, error) {
	nq, err := Normalize(q, now)
	if err != nil {
		return Result{}, err
	}
	if len(targets) == 0 {
		return Result{}, fmt.Errorf("query: no targets")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = DefaultConcurrency
	}

	start := time.Now()
	parts := make([]Part, len(targets))
	errs := make([]error, len(targets))
	elapsed := make([]time.Duration, len(targets))
	sem := make(chan struct{}, conc)
	// The fetches that start with the fan-out share one deadline, and so
	// one timer; a fetch that had to wait for a slot starts later and
	// arms its own, so every fetch gets the whole per-node timeout.
	shared, cancelShared := context.WithTimeout(ctx, timeout)
	defer cancelShared()
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			fctx := shared
			select {
			case sem <- struct{}{}:
			default:
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
				var cancel context.CancelFunc
				fctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			defer func() { <-sem }()
			fstart := time.Now()
			parts[i], errs[i] = fetch(fctx, t, nq)
			elapsed[i] = time.Since(fstart)
			if errs[i] == nil {
				errs[i] = parts[i].check(nq)
			}
		}(i, t)
	}
	wg.Wait()

	res := Result{Query: nq, Nodes: make([]NodeStatus, len(targets)), Elapsed: time.Since(start)}
	for i, t := range targets {
		ns := NodeStatus{Node: t.Node, Addr: t.Addr, Elapsed: elapsed[i]}
		if errs[i] != nil {
			// Errors render on one line of the result; flatten any newlines.
			ns.Err = strings.Join(strings.Fields(errs[i].Error()), " ")
			res.Failed++
		} else {
			ns.Count = parts[i].Count
			res.OK++
		}
		res.Nodes[i] = ns
	}
	res.Partial = res.Failed > 0
	res.merge(parts)
	return res, nil
}

// merge folds the successful parts into the cluster value. Percentiles
// merge by histogram-snapshot addition; everything else merges by the
// aggregation's own arithmetic. Parts with Count == 0 contribute nothing.
func (r *Result) merge(parts []Part) {
	if quant, isQuantile := r.Query.Agg.Quantile(); isQuantile {
		// Each part's counts add straight into the one histogram; Part.check
		// has held every OK part's indices to the layout.
		hist := new(tsdb.Hist)
		for i, p := range parts {
			if !r.Nodes[i].OK() {
				continue
			}
			for _, b := range p.Buckets {
				hist.Add(b.Index, b.Count)
			}
			r.Count += p.Count
		}
		r.Hist = hist
		if hist.Count > 0 {
			r.Value = hist.Quantile(quant)
			r.HasValue = true
		}
		return
	}

	var weighted float64 // Σ value·count, for avg
	for i, p := range parts {
		if !r.Nodes[i].OK() || p.Count == 0 {
			continue
		}
		switch r.Query.Agg {
		case tsdb.AggMin:
			if !r.HasValue || p.Value < r.Value {
				r.Value = p.Value
			}
		case tsdb.AggMax:
			if !r.HasValue || p.Value > r.Value {
				r.Value = p.Value
			}
		case tsdb.AggSum, tsdb.AggCount, tsdb.AggRate:
			// Sums and counts add; per-node rates add into the cluster-wide
			// aggregate rate of change (each node's rate is independent).
			r.Value += p.Value
		case tsdb.AggAvg:
			weighted += p.Value * float64(p.Count)
		}
		r.Count += p.Count
		r.HasValue = true
	}
	if r.Query.Agg == tsdb.AggAvg && r.Count > 0 {
		r.Value = weighted / float64(r.Count)
	}
}

// Render formats the merged result as line-oriented control-file text: the
// aggregate block first (same keys as a single-node tsdb result, plus the
// node tally and partial flag), then one provenance line per node. Numbers
// are appended with strconv, as Part.Render does: value in the shortest
// form that reads back exactly (fmt's %g), the window in seconds to the
// millisecond (%.3f).
func (r Result) Render() string {
	b := make([]byte, 0, 160+48*len(r.Nodes))
	b = append(b, "agg "...)
	b = append(b, r.Query.Agg.String()...)
	if r.HasValue {
		b = append(b, "\nvalue "...)
		b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
	} else {
		b = append(b, "\nvalue none"...)
	}
	b = append(b, "\nsamples "...)
	b = strconv.AppendInt(b, r.Count, 10)
	b = append(b, "\nfrom "...)
	b = strconv.AppendFloat(b, float64(r.Query.From)/1e9, 'f', 3, 64)
	b = append(b, "\nto "...)
	b = strconv.AppendFloat(b, float64(r.Query.To)/1e9, 'f', 3, 64)
	b = append(b, "\nresolution "...)
	if r.Query.Res > 0 {
		b = append(b, r.Query.Res.String()...)
	} else {
		b = append(b, "raw"...)
	}
	b = append(b, "\nnodes "...)
	b = strconv.AppendInt(b, int64(len(r.Nodes)), 10)
	b = append(b, " ok "...)
	b = strconv.AppendInt(b, int64(r.OK), 10)
	b = append(b, " failed "...)
	b = strconv.AppendInt(b, int64(r.Failed), 10)
	b = append(b, "\npartial "...)
	b = strconv.AppendBool(b, r.Partial)
	b = append(b, '\n')
	for _, ns := range r.Nodes {
		b = append(b, "node "...)
		b = append(b, renderName(ns.Node)...)
		if ns.OK() {
			b = append(b, " ok samples="...)
			b = strconv.AppendInt(b, ns.Count, 10)
			b = append(b, " in="...)
			b = append(b, ns.Elapsed.Round(time.Microsecond).String()...)
		} else {
			b = append(b, " error "...)
			b = append(b, ns.Err...)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// renderName is a node name as a provenance line shows it: verbatim, or
// quoted when it holds whitespace, control bytes or invalid UTF-8. Names come
// from registry members, which any remote client can join, and one holding a
// newline would otherwise split the rendered result — and end a kept
// queryall reply at its blank line.
func renderName(name string) string {
	if strings.IndexFunc(name, func(r rune) bool {
		return unicode.IsSpace(r) || unicode.IsControl(r) || r == utf8.RuneError
	}) >= 0 {
		return strconv.Quote(name)
	}
	return name
}

// SortTargets orders targets by node name for deterministic fan-out and
// result listings, deduplicating on name (registries can briefly hold a
// node twice across a rejoin).
func SortTargets(targets []Target) []Target {
	sort.Slice(targets, func(i, j int) bool { return targets[i].Node < targets[j].Node })
	out := targets[:0]
	for i, t := range targets {
		if i == 0 || t.Node != targets[i-1].Node {
			out = append(out, t)
		}
	}
	return out
}
