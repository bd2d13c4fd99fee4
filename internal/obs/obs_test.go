package obs

import (
	"strings"
	"testing"
	"time"

	"dproc/internal/metrics"
)

func TestSampleTraceRatio(t *testing.T) {
	o := New("alan", nil, 1000) // rounds up to 1024
	if o.SamplingEvery() != 1024 {
		t.Fatalf("SamplingEvery = %d, want 1024", o.SamplingEvery())
	}
	const rounds = 4
	sampled := 0
	var ids []uint64
	for i := 0; i < 1024*rounds; i++ {
		if tid := o.SampleTrace(); tid != 0 {
			sampled++
			ids = append(ids, tid)
		}
	}
	if sampled != rounds {
		t.Fatalf("sampled %d of %d, want exactly %d", sampled, 1024*rounds, rounds)
	}
	// IDs carry the node prefix and a strictly increasing sequence.
	prefix := ids[0] >> 48
	for i, id := range ids {
		if id>>48 != prefix {
			t.Fatalf("trace ID %016x lost the node prefix", id)
		}
		if i > 0 && id <= ids[i-1] {
			t.Fatalf("trace IDs not increasing: %016x after %016x", id, ids[i-1])
		}
	}
}

func TestSamplingDisabledAndNilSafety(t *testing.T) {
	o := New("alan", nil, 0)
	for i := 0; i < 100; i++ {
		if o.SampleTrace() != 0 {
			t.Fatal("disabled sampling produced a trace ID")
		}
	}
	// Histograms still record with tracing off.
	o.ObserveFilter(time.Millisecond, 0)
	if o.FilterRun.Count() != 1 {
		t.Fatal("histogram did not record with tracing disabled")
	}
	// Every method is a no-op on a nil observer.
	var n *Observer
	if n.SampleTrace() != 0 || n.SamplingEvery() != 0 {
		t.Fatal("nil observer not inert")
	}
	n.ObserveFilter(1, 1)
	n.ObserveQueue(1, 1)
	n.ObservePropagation(1, 1)
	n.ObserveDecode(1, 1)
	n.ObserveDispatch(1, 1)
	n.ObserveBatch(1)
	if n.Spans() != nil {
		t.Fatal("nil observer returned spans")
	}
	n.RenderTraces(&strings.Builder{}, 4)
}

func TestDistinctNodesGetDistinctPrefixes(t *testing.T) {
	a := New("alan", nil, 1)
	b := New("maui", nil, 1)
	if a.SampleTrace()>>48 == b.SampleTrace()>>48 {
		t.Fatal("different nodes produced the same trace-ID prefix")
	}
}

func TestSpansRecordAndEvict(t *testing.T) {
	o := New("alan", nil, 1)
	tid := o.SampleTrace()
	o.ObserveFilter(10*time.Microsecond, tid)
	o.ObserveQueue(20*time.Microsecond, tid)
	o.ObserveDispatch(5*time.Microsecond, tid)
	spans := o.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	stages := []Stage{StageFilter, StageQueue, StageDispatch}
	for i, sp := range spans {
		if sp.TraceID != tid || sp.Stage != stages[i] || sp.Node != "alan" {
			t.Fatalf("span %d = %+v", i, sp)
		}
	}
	// Overflow the ring: only the newest spanRingCap spans survive.
	for i := 0; i < spanRingCap+10; i++ {
		o.ObserveDispatch(time.Microsecond, o.SampleTrace())
	}
	if got := len(o.Spans()); got != spanRingCap {
		t.Fatalf("ring holds %d spans, want %d", got, spanRingCap)
	}
}

func TestPropagationClampsNegative(t *testing.T) {
	o := New("alan", nil, 1)
	o.ObservePropagation(-5*time.Second, 1)
	if got := o.PropDelay.Quantile(1); got != 0 {
		t.Fatalf("negative propagation recorded as %d, want clamp to 0", got)
	}
}

func TestRenderTraces(t *testing.T) {
	o := New("alan", nil, 1)
	t1, t2 := o.SampleTrace(), o.SampleTrace()
	o.ObserveFilter(time.Microsecond, t1)
	o.ObserveQueue(2*time.Microsecond, t1)
	o.ObserveDispatch(time.Microsecond, t2)
	var sb strings.Builder
	o.RenderTraces(&sb, 10)
	out := sb.String()
	if !strings.Contains(out, "filter=") || !strings.Contains(out, "queue=") || !strings.Contains(out, "dispatch=") {
		t.Fatalf("RenderTraces output missing stages:\n%s", out)
	}
	if got := strings.Count(out, "trace "); got != 2 {
		t.Fatalf("RenderTraces printed %d traces, want 2:\n%s", got, out)
	}
	// max limits to the most recent traces.
	sb.Reset()
	o.RenderTraces(&sb, 1)
	if got := strings.Count(sb.String(), "trace "); got != 1 {
		t.Fatalf("RenderTraces(max=1) printed %d traces", got)
	}
}

// TestSampledPathDoesNotAllocate pins the tentpole's memory budget: once the
// span pool is warm, recording a fully traced event (histogram + span, with
// ring eviction recycling the old span) allocates nothing.
func TestSampledPathDoesNotAllocate(t *testing.T) {
	o := New("alan", nil, 1)
	// Warm the pool and fill the ring so steady state recycles.
	for i := 0; i < spanRingCap*2; i++ {
		o.ObserveDispatch(time.Microsecond, o.SampleTrace())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tid := o.SampleTrace()
		o.ObserveFilter(time.Microsecond, tid)
		o.ObserveQueue(time.Microsecond, tid)
		o.ObserveDispatch(time.Microsecond, tid)
	})
	if allocs != 0 {
		t.Fatalf("sampled observation path allocates %.1f/op, want 0", allocs)
	}
}

func TestObserverRegistersInRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	o := New("alan", reg, 2)
	o.ObserveFilter(time.Millisecond, 0)
	var sb strings.Builder
	reg.RenderText(&sb)
	out := sb.String()
	for _, want := range []string{
		"obs filter_run count 1",
		"obs queue_residency",
		"obs prop_delay",
		"obs dispatch",
		"obs batch_size",
		"obs trace_sampled",
		"obs trace_events",
		"p99_ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry render missing %q:\n%s", want, out)
		}
	}
}
