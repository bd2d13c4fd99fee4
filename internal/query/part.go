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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// queries must name a window — "full retained range" differs per node —
// and a metric name of at most tsdb.MaxMetricBytes, the cap of the binary
// query a leaf reads.
func Normalize(q tsdb.Query, now time.Time) (tsdb.Query, error) {
	if _, isQuantile := q.Agg.Quantile(); isQuantile && q.Res > 0 {
		return q, fmt.Errorf("query: percentiles require raw resolution")
	}
	if len(q.Metric) > tsdb.MaxMetricBytes {
		return q, fmt.Errorf("query: metric name over %d bytes", tsdb.MaxMetricBytes)
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
// window, a count that is not negative, and for a percentile query bucket
// counts that sum to Count within the obs layout, none for an arithmetic
// one. A part failing it — a hostile or broken peer's — would add samples
// to the total that the merged histogram never saw, so Run fails that node
// instead.
func (p Part) check(q tsdb.Query) error {
	if p.From != q.From || p.To != q.To {
		return fmt.Errorf("query: part window [%d, %d) is not the query's [%d, %d)", p.From, p.To, q.From, q.To)
	}
	if p.Count < 0 {
		return fmt.Errorf("query: part counts %d samples", p.Count)
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
	if uint64(p.Count) != sum {
		return fmt.Errorf("query: part counts %d samples but its buckets hold %d", p.Count, sum)
	}
	return nil
}

// Part kinds in the binary form: what follows the count.
const (
	kindValue   byte = 1 // the value's 8 bytes, little-endian IEEE 754
	kindBuckets byte = 2 // the bucket count, then (index delta, count) pairs
)

// MaxPartBytes caps a part's binary form: three varints, the kind byte, the
// bucket count and a pair for every bucket of the layout.
const MaxPartBytes = 3*binary.MaxVarintLen64 + 1 + 2 + obs.NumBuckets*(2+binary.MaxVarintLen64)

// AppendBinary appends the part's binary form — the body of a querypart
// reply (DESIGN §12): From, To and Count as varints, then a kind byte and
// either Value's 8 bytes (arithmetic parts, and percentile parts with no
// data) or the bucket count and one (index delta, count) uvarint pair per
// bucket, the first delta from index 0.
func (p Part) AppendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, p.From)
	b = binary.AppendVarint(b, p.To)
	b = binary.AppendVarint(b, p.Count)
	if p.Buckets == nil {
		b = append(b, kindValue)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Value))
	}
	b = append(b, kindBuckets)
	b = binary.AppendUvarint(b, uint64(len(p.Buckets)))
	prev := 0
	for _, bc := range p.Buckets {
		delta := uint64(bc.Index - prev)
		if delta < 0x80 && bc.Count < 0x80 {
			b = append(b, byte(delta), byte(bc.Count)) // the common pair: two one-byte uvarints
		} else {
			b = binary.AppendUvarint(binary.AppendUvarint(b, delta), bc.Count)
		}
		prev = bc.Index
	}
	return b
}

// DecodePart reads AppendBinary's form. It refuses trailing bytes, an
// unknown kind, a bucket count larger than the bytes that remain can hold
// (checked before the bucket list is sized by it), indices that do not
// ascend or fall outside the obs layout, and overlong varints, so every part
// it returns re-encodes to exactly b. Whether the part answers its query is
// Part.check's to say.
func DecodePart(b []byte) (Part, error) {
	var p Part
	var err error
	if p.From, b, err = tsdb.ReadVarint(b); err != nil {
		return p, err
	}
	if p.To, b, err = tsdb.ReadVarint(b); err != nil {
		return p, err
	}
	if p.Count, b, err = tsdb.ReadVarint(b); err != nil {
		return p, err
	}
	if len(b) == 0 {
		return p, errors.New("query: part ends before its kind")
	}
	kind, b := b[0], b[1:]
	switch kind {
	case kindValue:
		if len(b) != 8 {
			return p, fmt.Errorf("query: value part has %d bytes after its kind, want 8", len(b))
		}
		p.Value = math.Float64frombits(binary.LittleEndian.Uint64(b))
		return p, nil
	case kindBuckets:
	default:
		return p, fmt.Errorf("query: unknown part kind %d", kind)
	}
	n, b, err := tsdb.ReadUvarint(b)
	if err != nil {
		return p, err
	}
	// A pair is at least two bytes.
	if n > obs.NumBuckets || n > uint64(len(b)/2) {
		return p, fmt.Errorf("query: part claims %d buckets in %d bytes", n, len(b))
	}
	p.Buckets = make([]BucketCount, n)
	index := uint64(0)
	for i := range p.Buckets {
		var delta, count uint64
		if len(b) >= 2 && b[0] < 0x80 && b[1] < 0x80 {
			delta, count, b = uint64(b[0]), uint64(b[1]), b[2:] // the common pair: two one-byte uvarints
		} else {
			if delta, b, err = tsdb.ReadUvarint(b); err != nil {
				return p, err
			}
			if count, b, err = tsdb.ReadUvarint(b); err != nil {
				return p, err
			}
		}
		if i > 0 && delta == 0 {
			return p, fmt.Errorf("query: part bucket indices do not ascend at pair %d", i)
		}
		if delta >= obs.NumBuckets-index {
			return p, fmt.Errorf("query: part bucket index %d+%d outside the layout", index, delta)
		}
		index += delta
		p.Buckets[i] = BucketCount{Index: int(index), Count: count}
	}
	if len(b) > 0 {
		return p, fmt.Errorf("query: part has %d trailing bytes", len(b))
	}
	return p, nil
}
