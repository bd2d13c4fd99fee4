// Package query is the cluster-wide scatter-gather layer over per-node
// tsdb history: one coordinator normalizes a windowed query, fans it out to
// every registered node concurrently, and merges the per-node parts —
// min/max/sum/count/rate arithmetically, percentiles by merging obs
// histogram snapshots (never by averaging per-node percentiles, which is
// wrong for any skewed distribution). Dead or straggling nodes yield an
// annotated partial result under a per-node timeout, not a hang.
//
// The package deliberately knows nothing about the admin protocol: a Fetch
// function abstracts "ask one node for its part", so the engine and merge
// rules are testable in-process and adminproto supplies the network-backed
// Fetch without an import cycle (adminproto → core → everything).
// See DESIGN.md §12 for the semantics.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dproc/internal/obs"
	"dproc/internal/tsdb"
)

// ValueScale converts float metric values to the integer domain of the obs
// buckets a percentile part counts (tsdb.ValueScale).
const ValueScale = tsdb.ValueScale

// Part is one node's share of a cluster query over the normalized window
// [From, To). Arithmetic aggregations carry (Value, Count); percentile
// queries carry sparse obs-histogram bucket counts instead, because
// per-node percentiles do not merge — bucket counts do. A node with no
// data in the window reports Count == 0: an empty contribution, not an
// error.
type Part struct {
	From, To int64
	Count    int64
	Value    float64
	Buckets  []BucketCount // ascending by Index; nil for arithmetic parts
}

// BucketCount is one non-empty bucket of a percentile part: how many of
// the window's samples fell in obs bucket Index.
type BucketCount struct {
	Index int
	Count uint64
}

// Normalize resolves q into the absolute form every leaf must answer
// identically: "last <dur>" windows anchor at the coordinator's now (not
// each node's newest sample, which would make nodes answer different
// windows), and tier windows are pre-widened to whole buckets so the
// leaves' own widening (idempotent, DESIGN.md §7) changes nothing. Cluster
// queries must name a window — "full retained range" differs per node.
func Normalize(q tsdb.Query, now time.Time) (tsdb.Query, error) {
	if _, isQuantile := q.Agg.Quantile(); isQuantile && q.Res > 0 {
		return q, fmt.Errorf("query: percentiles require raw resolution")
	}
	switch {
	case q.Last > 0:
		q.To = now.UnixNano() + 1
		q.From = q.To - q.Last.Nanoseconds()
		q.Last = 0
	case q.From == 0 && q.To == 0:
		return q, fmt.Errorf("query: cluster queries need an explicit window (from <t> to <t> or last <dur>)")
	}
	if q.From >= q.To {
		return q, fmt.Errorf("query: empty window [%d, %d)", q.From, q.To)
	}
	if q.Res > 0 {
		q.From, q.To = tsdb.WidenWindow(q.From, q.To, q.Res)
	}
	return q, nil
}

// ComputePart answers one node's share of a normalized query from its local
// store, with the given tsdb series name. Arithmetic aggregations reuse the
// summary-folding tsdb query; a percentile counts the raw window into a
// tsdb.Hist (tsdb.DB.CountWindow) and carries its non-empty buckets. "No
// data" (unknown series, empty window, too few samples for a rate) is an
// empty part, not an error; a chunk that fails to decode is an error, so
// the coordinator fails this node instead of merging a short window.
func ComputePart(db *tsdb.DB, series string, q tsdb.Query) (Part, error) {
	p := Part{From: q.From, To: q.To}
	var r tsdb.Result
	var err error
	if _, isQuantile := q.Agg.Quantile(); isQuantile {
		r, err = db.CountWindow(series, q, func(h *tsdb.Hist) { p.Buckets = sparse(h) })
	} else {
		r, err = db.Query(series, q)
	}
	if errors.Is(err, tsdb.ErrNoData) {
		return p, nil
	}
	if err != nil {
		return p, err
	}
	p.Count = r.Count
	if p.Buckets == nil { // a percentile part's buckets stand for its value
		p.Value = r.Value
	}
	return p, nil
}

// sparse lists h's non-empty buckets in ascending order.
func sparse(h *tsdb.Hist) []BucketCount {
	distinct := 0
	for _, n := range h.Buckets[h.Lo : h.Hi+1] {
		if n > 0 {
			distinct++
		}
	}
	out := make([]BucketCount, 0, distinct)
	for i := h.Lo; i <= h.Hi; i++ {
		if n := h.Buckets[i]; n > 0 {
			out = append(out, BucketCount{Index: i, Count: n})
		}
	}
	return out
}

// check reports whether p can answer the normalized query q: the same
// window, and for a percentile query bucket counts that sum to Count within
// the obs layout, none for an arithmetic one. A part failing it — a reply
// cut short after its count line, a hostile or version-skewed peer — would
// add samples to the total that the merged histogram never saw, so Run
// fails that node instead.
func (p Part) check(q tsdb.Query) error {
	if p.From != q.From || p.To != q.To {
		return fmt.Errorf("query: part window [%d, %d) is not the query's [%d, %d)", p.From, p.To, q.From, q.To)
	}
	if _, isQuantile := q.Agg.Quantile(); !isQuantile {
		if p.Buckets != nil {
			return fmt.Errorf("query: %s part carries buckets", q.Agg)
		}
		return nil
	}
	var sum uint64
	for _, b := range p.Buckets {
		if b.Index < 0 || b.Index >= obs.NumBuckets {
			return fmt.Errorf("query: part bucket %d outside the layout", b.Index)
		}
		if sum+b.Count < sum {
			return fmt.Errorf("query: part bucket counts overflow")
		}
		sum += b.Count
	}
	if p.Count < 0 || uint64(p.Count) != sum {
		return fmt.Errorf("query: part counts %d samples but its buckets hold %d", p.Count, sum)
	}
	return nil
}

// Render formats the part as line-oriented "key value" wire text:
//
//	from <ns>
//	to <ns>
//	count <n>
//	value <g>                  (arithmetic parts)
//	buckets <i>:<c> <i>:<c> …  (percentile parts with data)
func (p Part) Render() string {
	b := make([]byte, 0, 64+16*len(p.Buckets))
	b = append(b, "from "...)
	b = strconv.AppendInt(b, p.From, 10)
	b = append(b, "ns\nto "...)
	b = strconv.AppendInt(b, p.To, 10)
	b = append(b, "ns\ncount "...)
	b = strconv.AppendInt(b, p.Count, 10)
	if p.Buckets == nil {
		b = append(b, "\nvalue "...)
		b = strconv.AppendFloat(b, p.Value, 'g', -1, 64)
		return string(append(b, '\n'))
	}
	b = append(b, "\nbuckets"...)
	for _, bc := range p.Buckets {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(bc.Index), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, bc.Count, 10)
	}
	return string(append(b, '\n'))
}

// ParsePart parses Render's wire form. A part carrying both a value and
// buckets is refused: Render writes one or the other, so no peer sends it.
func ParsePart(text string) (Part, error) {
	var p Part
	sawFrom, sawTo, sawValue := false, false, false
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		var err error
		switch key {
		case "from":
			p.From, err = parseNanos(rest)
			sawFrom = true
		case "to":
			p.To, err = parseNanos(rest)
			sawTo = true
		case "count":
			p.Count, err = strconv.ParseInt(rest, 10, 64)
		case "value":
			p.Value, err = strconv.ParseFloat(rest, 64)
			sawValue = true
		case "buckets":
			p.Buckets = make([]BucketCount, 0, strings.Count(rest, ":"))
			for rest != "" {
				var pair string
				pair, rest, _ = strings.Cut(rest, " ")
				if pair == "" {
					continue
				}
				is, cs, ok := strings.Cut(pair, ":")
				if !ok {
					return p, fmt.Errorf("query: bad bucket pair %q", pair)
				}
				i, err1 := strconv.Atoi(is)
				c, err2 := strconv.ParseUint(cs, 10, 64)
				if err1 != nil || err2 != nil {
					return p, fmt.Errorf("query: bad bucket pair %q", pair)
				}
				p.Buckets = append(p.Buckets, BucketCount{Index: i, Count: c})
			}
		default:
			// Unknown keys are ignored for forward compatibility.
		}
		if err != nil {
			return p, fmt.Errorf("query: bad part line %q: %v", line, err)
		}
	}
	if !sawFrom || !sawTo {
		return p, fmt.Errorf("query: part missing window")
	}
	if sawValue && p.Buckets != nil {
		return p, fmt.Errorf("query: part has both a value and buckets")
	}
	return p, nil
}

func parseNanos(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSuffix(s, "ns"), 10, 64)
}
