// Package obs is dproc's self-observability layer: sampled per-event traces
// and lock-free streaming histograms over the data plane. A monitoring
// system's own latency distribution is the number that matters at scale —
// the exact propagation-delay question the paper's Section 5 experiments
// measure — so the instrumentation is built natively into the hot path
// under a strict budget (DESIGN.md §9):
//
//   - Histograms are always on: recording is three atomic adds, no locks,
//     no allocation.
//   - Tracing is sampled: one event in every N (a power of two) gets a
//     trace ID at sample time, carried across the wire in an optional
//     frame extension, and each pipeline stage it passes (filter exec,
//     outbox enqueue→write, wire decode, handler dispatch, cross-node
//     propagation) records a pooled span. Unsampled events pay a single
//     branch per stage.
//   - Span records are pooled and ring-bounded; steady-state tracing
//     allocates nothing.
//
// Every number the observer produces registers in the node's unified
// metrics.Registry, so the stats pseudo-file, the admin "stats" verb and
// the Prometheus /metrics endpoint render the same distributions.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/metrics"
)

// Stage names one instrumented point in an event's life.
type Stage uint8

const (
	// StageFilter is E-code filter execution at the publishing node.
	StageFilter Stage = iota
	// StageQueue is outbox residency: Publish enqueue to completed write.
	StageQueue
	// StagePropagate is cross-node propagation: publisher send stamp to
	// subscriber receive stamp (clamped at zero under clock skew).
	StagePropagate
	// StageDecode is wire decode at the receiving node.
	StageDecode
	// StageDispatch is handler dispatch at the receiving node.
	StageDispatch
)

func (s Stage) String() string {
	switch s {
	case StageFilter:
		return "filter"
	case StageQueue:
		return "queue"
	case StagePropagate:
		return "propagate"
	case StageDecode:
		return "decode"
	case StageDispatch:
		return "dispatch"
	}
	return "unknown"
}

// Span is one stage's latency record for a sampled event.
type Span struct {
	// TraceID ties spans to their event across nodes; high 16 bits derive
	// from the stamping node's name, so IDs from different publishers
	// cannot collide in practice.
	TraceID uint64
	Stage   Stage
	// Node is where the span was recorded (publisher for filter/queue,
	// subscriber for propagate/decode/dispatch).
	Node string
	// At is when the stage completed.
	At  time.Time
	Dur time.Duration
}

// spanRingCap bounds retained spans per observer; older spans are evicted
// back into the pool, so the stats file shows the most recent traces and
// tracing memory stays constant.
const spanRingCap = 256

// traceSeqMask keeps the sequence part of a trace ID clear of the
// node-derived high bits.
const traceSeqMask = (1 << 48) - 1

// Observer is one node's collection point. All methods are safe on a nil
// receiver — a component without an observer pays one branch — and safe for
// concurrent use. Sampling parameters are fixed at construction, so the
// hot-path checks read plain fields.
type Observer struct {
	node   string
	every  uint64 // sampling period (power of two); 0 disables tracing
	mask   uint64
	idBase uint64
	seq    atomic.Uint64

	// The data-plane distributions, registered in the node's registry under
	// subsystem "obs". Exported so instrumentation sites can record into
	// them directly.
	FilterRun      *Histogram // E-code filter execution time (ns)
	QueueResidency *Histogram // outbox enqueue → completed write (ns)
	PropDelay      *Histogram // cross-node propagation delay (ns)
	DispatchTime   *Histogram // handler dispatch time (ns)
	BatchSize      *Histogram // events per written frame

	// PropDelayDepth splits propagation delay by relay-tree hop count:
	// index 0 is direct delivery (hops=0), deeper hops accumulate at their
	// index, and anything past the last slot clamps into it. Flat channels
	// never stamp hops, so only index 0 fills there.
	PropDelayDepth [maxObservedDepth]*Histogram

	sampled *atomic.Uint64

	spanMu   sync.Mutex
	spans    [spanRingCap]*Span
	spanNext int
	spanLen  int
	spanPool sync.Pool
}

// New creates an observer for node, registering its histograms and trace
// counters in reg (a private registry when nil). sampleEvery selects the
// tracing rate — one event in sampleEvery, rounded up to a power of two so
// the hot-path decision is a mask test; 0 or negative disables tracing
// while keeping histograms live.
func New(node string, reg *metrics.Registry, sampleEvery int) *Observer {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	o := &Observer{
		node:           node,
		idBase:         uint64(hashNode(node)) << 48,
		FilterRun:      &Histogram{},
		QueueResidency: &Histogram{},
		PropDelay:      &Histogram{},
		DispatchTime:   &Histogram{},
		BatchSize:      &Histogram{},
	}
	if sampleEvery > 0 {
		every := uint64(1)
		for every < uint64(sampleEvery) {
			every <<= 1
		}
		o.every, o.mask = every, every-1
	}
	for i := range o.PropDelayDepth {
		o.PropDelayDepth[i] = &Histogram{}
		reg.Distribution("obs", "", fmt.Sprintf("prop_delay_d%d", i), "ns", o.PropDelayDepth[i])
	}
	o.spanPool.New = func() any { return new(Span) }
	reg.Distribution("obs", "", "filter_run", "ns", o.FilterRun)
	reg.Distribution("obs", "", "queue_residency", "ns", o.QueueResidency)
	reg.Distribution("obs", "", "prop_delay", "ns", o.PropDelay)
	reg.Distribution("obs", "", "dispatch", "ns", o.DispatchTime)
	reg.Distribution("obs", "", "batch_size", "", o.BatchSize)
	o.sampled = reg.Counter("obs", "", "trace_sampled")
	reg.Gauge("obs", "", "trace_events", o.seq.Load)
	return o
}

// hashNode derives the 16-bit trace-ID prefix from the node name (FNV-1a).
func hashNode(node string) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(node); i++ {
		h = (h ^ uint32(node[i])) * 16777619
	}
	return uint16(h ^ h>>16)
}

// SamplingEvery reports the tracing period (0 when tracing is disabled).
func (o *Observer) SamplingEvery() uint64 {
	if o == nil {
		return 0
	}
	return o.every
}

// SampleTrace makes the per-event sampling decision at the moment the event
// is born (d-mon stamps at sample time; kecho.Publish stamps at publish
// time). It returns a non-zero trace ID for one event in every `every`, 0
// otherwise. One atomic add and a mask test; a nil observer or disabled
// sampling costs a branch.
func (o *Observer) SampleTrace() uint64 {
	if o == nil {
		return 0
	}
	n := o.seq.Add(1)
	if o.every == 0 || n&o.mask != 0 {
		return 0
	}
	o.sampled.Add(1)
	return o.idBase | (n & traceSeqMask)
}

// ObserveFilter records one E-code filter execution.
func (o *Observer) ObserveFilter(d time.Duration, traceID uint64) {
	if o == nil {
		return
	}
	o.FilterRun.Record(int64(d))
	if traceID != 0 {
		o.recordSpan(traceID, StageFilter, d)
	}
}

// ObserveQueue records one record's outbox residency (enqueue → written).
func (o *Observer) ObserveQueue(d time.Duration, traceID uint64) {
	if o == nil {
		return
	}
	o.QueueResidency.Record(int64(d))
	if traceID != 0 {
		o.recordSpan(traceID, StageQueue, d)
	}
}

// ObservePropagation records one traced event's cross-node propagation
// delay (publisher send stamp → local receive). Negative deltas — clock
// skew between differently-paced clocks — clamp to zero rather than
// poisoning the distribution.
func (o *Observer) ObservePropagation(d time.Duration, traceID uint64) {
	if o == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	o.PropDelay.Record(int64(d))
	if traceID != 0 {
		o.recordSpan(traceID, StagePropagate, d)
	}
}

// maxObservedDepth bounds the per-depth propagation histograms: hops 0..4
// get their own distribution, deeper hops clamp into the last slot. A relay
// tree with branching b covers b^5 members within that range.
const maxObservedDepth = 6

// ObservePropagationDepth records a relay-delivered event's propagation
// delay under its hop depth, feeding the per-depth p99 the relay benchmarks
// report. Depth beyond the histogram range clamps to the last slot; negative
// deltas (clock skew) clamp to zero, matching ObservePropagation.
func (o *Observer) ObservePropagationDepth(depth int, d time.Duration) {
	if o == nil {
		return
	}
	if depth < 0 {
		depth = 0
	}
	if depth >= maxObservedDepth {
		depth = maxObservedDepth - 1
	}
	if d < 0 {
		d = 0
	}
	o.PropDelayDepth[depth].Record(int64(d))
}

// ObserveDecode records a traced event's wire-decode span (span only; the
// per-record decode cost is too small to histogram usefully).
func (o *Observer) ObserveDecode(d time.Duration, traceID uint64) {
	if o == nil || traceID == 0 {
		return
	}
	o.recordSpan(traceID, StageDecode, d)
}

// ObserveDispatch records one event's handler dispatch time.
func (o *Observer) ObserveDispatch(d time.Duration, traceID uint64) {
	if o == nil {
		return
	}
	o.DispatchTime.Record(int64(d))
	if traceID != 0 {
		o.recordSpan(traceID, StageDispatch, d)
	}
}

// ObserveBatch records the size of one written frame.
func (o *Observer) ObserveBatch(n int) {
	if o == nil {
		return
	}
	o.BatchSize.Record(int64(n))
}

// recordSpan stores a span for a sampled event: drawn from the pool,
// inserted into the bounded ring, evicting (and recycling) the oldest —
// steady-state tracing allocates nothing.
func (o *Observer) recordSpan(traceID uint64, stage Stage, d time.Duration) {
	sp := o.spanPool.Get().(*Span)
	sp.TraceID, sp.Stage, sp.Node, sp.At, sp.Dur = traceID, stage, o.node, time.Now(), d
	o.spanMu.Lock()
	old := o.spans[o.spanNext]
	o.spans[o.spanNext] = sp
	o.spanNext = (o.spanNext + 1) % spanRingCap
	if o.spanLen < spanRingCap {
		o.spanLen++
	}
	o.spanMu.Unlock()
	if old != nil {
		o.spanPool.Put(old)
	}
}

// Spans returns a copy of the retained spans, oldest first. Cold path.
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	o.spanMu.Lock()
	defer o.spanMu.Unlock()
	out := make([]Span, 0, o.spanLen)
	start := o.spanNext - o.spanLen
	if start < 0 {
		start += spanRingCap
	}
	for i := 0; i < o.spanLen; i++ {
		out = append(out, *o.spans[(start+i)%spanRingCap])
	}
	return out
}

// RenderTraces writes the most recent max traces, one line per trace with
// its per-stage breakdown in recorded order:
//
//	trace 00c4000000000400 filter=12.4µs queue=8.1µs propagate=213µs dispatch=1.9µs
//
// Spans recorded on this node only: a publisher shows filter/queue, a
// subscriber shows propagate/decode/dispatch for the traces it received.
func (o *Observer) RenderTraces(w io.Writer, max int) {
	if o == nil {
		return
	}
	spans := o.Spans()
	order := make([]uint64, 0, 16)
	byTrace := make(map[uint64][]Span, 16)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	if max > 0 && len(order) > max {
		order = order[len(order)-max:]
	}
	for _, tid := range order {
		fmt.Fprintf(w, "trace %016x", tid)
		group := byTrace[tid]
		sort.SliceStable(group, func(i, j int) bool { return group[i].At.Before(group[j].At) })
		for _, sp := range group {
			fmt.Fprintf(w, " %s=%v", sp.Stage, sp.Dur)
		}
		fmt.Fprintln(w)
	}
}
