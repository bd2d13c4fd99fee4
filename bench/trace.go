package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Benchmark-side tracing (the -trace 1 run only). Spans are recorded from
// the benchmark's own files, around its calls into each layer; nothing
// inside internal/ is touched. They live in a preallocated ring — the file
// holds the newest ringSize spans — and are written out after the cluster
// has been torn down, so recording costs two clock reads and a slot write.

const ringSize = 1 << 15

// span is one timed call. Start/End are ns since the run's epoch. Parent is
// the span that caused this one (0 for a root); spans of one event share
// Event (the event's sequence number, or the query number on history-rw).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Event  uint64 `json:"event"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time // spans are stamped in ns since this instant
	ring  []span
	next  atomic.Uint64 // spans recorded so far; ID = index+1, slot = index % ringSize

	// emitName labels the generator's emit span ("kecho.publish",
	// "core.poll_once").
	emitName string
	// emitID/emitEnd let a consumer's handler find, by sequence number, the
	// emit span that caused its delivery and when that call returned.
	emitID  []atomic.Uint64
	emitEnd []atomic.Int64
}

func newTracer(emitName string) *tracer {
	return &tracer{
		epoch:    time.Now(),
		ring:     make([]span, ringSize),
		emitName: emitName,
		emitID:   make([]atomic.Uint64, ringSize),
		emitEnd:  make([]atomic.Int64, ringSize),
	}
}

// record stores one span and returns its ID.
func (t *tracer) record(name string, parent, event uint64, node string, start, end int64) uint64 {
	id := t.next.Add(1)
	t.ring[(id-1)%ringSize] = span{Name: name, ID: id, Parent: parent, Event: event, Node: node, Start: start, End: end}
	return id
}

// sendTraced is loop.send with the emit call wrapped in a span.
func (l *loop) sendTraced(seq uint64) error {
	t0 := l.now()
	err := l.emit(seq)
	t1 := l.now()
	if err != nil {
		return err
	}
	id := l.tr.record(l.tr.emitName, 0, seq, "", t0, t1)
	l.tr.emitID[seq%ringSize].Store(id)
	l.tr.emitEnd[seq%ringSize].Store(t1)
	l.sent.Store(seq)
	into := &l.emitNs
	if l.probing.Load() {
		into = &l.probeEmitNs
	}
	if len(*into) < cap(*into) {
		*into = append(*into, t1-t0)
	}
	return nil
}

// delivery records the two consumer-side spans of one delivery: transit
// (emit call returned → handler entered: outbox, writer, wire, parse,
// dispatch — everything the benchmark cannot see into) and handler. A
// handler that ran before the emit call returned has no transit to speak
// of; the span is recorded empty rather than negative.
func (t *tracer) delivery(seq uint64, node string, entered, returned int64) {
	parent := t.emitID[seq%ringSize].Load()
	start := t.emitEnd[seq%ringSize].Load()
	if start == 0 || start > entered {
		start = entered
	}
	tid := t.record("transit", parent, seq, node, start, entered)
	t.record("handler", tid, seq, node, entered, returned)
}

// spans returns the retained spans, oldest first. Call only after every
// recording goroutine has stopped.
func (t *tracer) spans() []span {
	n := t.next.Load()
	if n <= ringSize {
		return t.ring[:n]
	}
	out := make([]span, 0, ringSize)
	head := n % ringSize
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// selfTimes returns, per span name, the ascending self times in ns: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[uint64]int64, len(spans))
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	out := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		self := s.End - s.Start - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
