package metrics

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestIDStringAndParseRoundTrip(t *testing.T) {
	for _, id := range AllIDs() {
		name := id.String()
		if name == "" || strings.Contains(name, "(") {
			t.Fatalf("id %d has no name", int(id))
		}
		got, ok := ParseID(name)
		if !ok || got != id {
			t.Fatalf("ParseID(%q) = (%v, %v), want %v", name, got, ok, id)
		}
	}
}

func TestParseIDUnknown(t *testing.T) {
	if _, ok := ParseID("nonsense"); ok {
		t.Fatal("ParseID accepted an unknown name")
	}
}

func TestInvalidIDFormatting(t *testing.T) {
	bad := ID(999)
	if bad.Valid() {
		t.Fatal("ID(999).Valid() = true")
	}
	if got := bad.String(); got != "metric(999)" {
		t.Fatalf("String = %q", got)
	}
	if bad.Resource() != NumResources {
		t.Fatal("invalid ID resource should be NumResources")
	}
}

func TestEveryIDHasResourceAndSymbol(t *testing.T) {
	symbol := map[ID]string{}
	for name, idx := range FilterSymbols() {
		symbol[ID(idx)] = name
	}
	for _, id := range AllIDs() {
		if r := id.Resource(); r < 0 || r >= NumResources {
			t.Errorf("%v has invalid resource %v", id, r)
		}
		if symbol[id] == "" {
			t.Errorf("%v has no filter symbol", id)
		}
	}
}

func TestResourceStringAndParse(t *testing.T) {
	for r := Resource(0); r < NumResources; r++ {
		got, ok := ParseResource(r.String())
		if !ok || got != r {
			t.Fatalf("ParseResource(%q) = (%v,%v)", r.String(), got, ok)
		}
	}
	if _, ok := ParseResource("gpu"); ok {
		t.Fatal("ParseResource accepted unknown resource")
	}
	if got := Resource(42).String(); got != "resource(42)" {
		t.Fatalf("out-of-range resource String = %q", got)
	}
}

// TestIDsForResourcePartitionsIDSpace: ID.Resource puts every metric in
// exactly one resource, and every resource has a metric.
func TestIDsForResourcePartitionsIDSpace(t *testing.T) {
	perResource := make([]int, NumResources)
	for _, id := range AllIDs() {
		r := id.Resource()
		if r < 0 || r >= NumResources {
			t.Fatalf("%v has resource %v, outside the %d resources", id, r, NumResources)
		}
		perResource[r]++
	}
	for r, n := range perResource {
		if n == 0 {
			t.Errorf("resource %v has no metric", Resource(r))
		}
	}
}

func TestFilterSymbolsAreUniqueAndComplete(t *testing.T) {
	syms := FilterSymbols()
	if len(syms) != int(NumIDs) {
		t.Fatalf("FilterSymbols has %d entries, want %d", len(syms), NumIDs)
	}
	seen := map[int]bool{}
	for name, idx := range syms {
		if name != strings.ToUpper(name) {
			t.Errorf("symbol %q not upper-case", name)
		}
		if seen[idx] {
			t.Errorf("index %d appears twice", idx)
		}
		seen[idx] = true
	}
	// Figure 3 of the paper uses these exact names.
	for _, want := range []string{"LOADAVG", "DISKUSAGE", "FREEMEM", "CACHE_MISS"} {
		if _, ok := syms[want]; !ok {
			t.Errorf("paper symbol %q missing", want)
		}
	}
}

func sampleReport() *Report {
	ts := time.Date(2003, 6, 23, 1, 2, 3, 0, time.UTC)
	return &Report{
		Node: "alan",
		Seq:  42,
		Time: ts,
		Samples: []Sample{
			{ID: LOADAVG, Value: 2.5, LastSent: 2.0, Time: ts},
			{ID: FREEMEM, Value: 48e6, LastSent: 50e6, Time: ts.Add(time.Millisecond)},
			{ID: CACHE_MISS, Value: 123456, LastSent: 100000, Time: ts},
		},
		Padding: []byte{0xAA, 0xBB},
	}
}

func TestReportEncodeDecodeRoundTrip(t *testing.T) {
	r := sampleReport()
	dec, err := DecodeReport(r.Encode())
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if dec.Node != r.Node || dec.Seq != r.Seq || !dec.Time.Equal(r.Time) {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Samples) != len(r.Samples) {
		t.Fatalf("samples = %d, want %d", len(dec.Samples), len(r.Samples))
	}
	for i, s := range r.Samples {
		g := dec.Samples[i]
		if g.ID != s.ID || g.Value != s.Value || g.LastSent != s.LastSent || !g.Time.Equal(s.Time) {
			t.Errorf("sample %d = %+v, want %+v", i, g, s)
		}
	}
	if len(dec.Padding) != 2 || dec.Padding[0] != 0xAA {
		t.Fatalf("padding = %v", dec.Padding)
	}
}

func TestReportSizeMatchesEncoding(t *testing.T) {
	r := sampleReport()
	if r.Size() != len(r.Encode()) {
		t.Fatal("Size() disagrees with len(Encode())")
	}
	// Paper: basic monitoring events are 50-100 bytes of information; a
	// 4-sample report should be in the low hundreds at most.
	if r.Size() > 300 {
		t.Fatalf("3-sample report is %d bytes; expected compact encoding", r.Size())
	}
}

func TestDecodeReportRejectsGarbage(t *testing.T) {
	if _, err := DecodeReport([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeReport accepted garbage")
	}
}

func TestDecodeReportRejectsImplausibleCount(t *testing.T) {
	r := &Report{Node: "x", Samples: []Sample{{ID: LOADAVG}}}
	raw := r.Encode()
	// Corrupt the sample-count field (right after node string + seq + time).
	off := 4 + 1 + 8 + 8
	raw[off], raw[off+1], raw[off+2], raw[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeReport(raw); err == nil {
		t.Fatal("DecodeReport accepted implausible sample count")
	}
}

func TestDecodeReportRejectsInvalidID(t *testing.T) {
	r := &Report{Node: "x", Samples: []Sample{{ID: ID(5000)}}}
	if _, err := DecodeReport(r.Encode()); err == nil {
		t.Fatal("DecodeReport accepted out-of-range metric ID")
	}
}

func TestDecodeReportRejectsTrailing(t *testing.T) {
	raw := append(sampleReport().Encode(), 0x00)
	if _, err := DecodeReport(raw); err == nil {
		t.Fatal("DecodeReport accepted trailing bytes")
	}
}

// Property: reports with arbitrary values survive an encode/decode round trip.
func TestQuickReportRoundTrip(t *testing.T) {
	f := func(node string, seq uint64, vals []float64, pad []byte) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		ts := time.Unix(0, 1056326400e9).UTC()
		r := &Report{Node: node, Seq: seq, Time: ts, Padding: pad}
		for i, v := range vals {
			r.Samples = append(r.Samples, Sample{ID: ID(i % int(NumIDs)), Value: v, Time: ts})
		}
		dec, err := DecodeReport(r.Encode())
		if err != nil {
			return false
		}
		if dec.Node != node || dec.Seq != seq || len(dec.Samples) != len(r.Samples) {
			return false
		}
		for i := range dec.Samples {
			want := r.Samples[i].Value
			got := dec.Samples[i].Value
			if got != want && !(got != got && want != want) { // NaN-safe compare
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, r := range []*Report{sampleReport(), {Node: "x"}, {Node: "pad", Padding: make([]byte, 5000)}} {
		want := r.Encode()
		prefix := []byte("prefix")
		got := r.AppendEncode(prefix)
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendEncode after a prefix differs from Encode for %+v", r)
		}
		if r.Size() != len(want) {
			t.Fatalf("Size() = %d, len(Encode()) = %d", r.Size(), len(want))
		}
	}
}

// TestDecodeReportIntoReusesReport: decoding the same node's reports into one
// Report keeps its name and sample array, so the receive path allocates
// nothing per report; the padding is a view of the buffer.
func TestDecodeReportIntoReusesReport(t *testing.T) {
	raw := sampleReport().Encode()
	var r Report
	if err := DecodeReportInto(&r, raw); err != nil {
		t.Fatal(err)
	}
	name, samples := unsafe.StringData(r.Node), &r.Samples[0]
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := DecodeReportInto(&r, raw); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeReportInto allocated %.1f times per report", allocs)
	}
	if unsafe.StringData(r.Node) != name || &r.Samples[0] != samples {
		t.Fatal("DecodeReportInto replaced the node name or the sample array")
	}
	if &r.Padding[0] != &raw[len(raw)-2] {
		t.Fatal("DecodeReportInto's padding is not a view of the buffer")
	}
	// DecodeReport's result shares nothing with its buffer.
	dec, err := DecodeReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] = 0
	if dec.Padding[1] != 0xBB {
		t.Fatal("DecodeReport's padding aliases the buffer")
	}
}

// TestDecodeReportRejectsOversizedCountCheaply: a payload that declares more
// samples than its bytes can hold is refused before the count sizes
// anything — a 1 MiB payload must not cost more than 1 MiB to reject.
func TestDecodeReportRejectsOversizedCountCheaply(t *testing.T) {
	const countAt = 4 + 1 + 8 + 8 // after the name "x", the seq and the time
	raw := make([]byte, 1<<20)
	copy(raw, (&Report{Node: "x"}).Encode()[:countAt])
	remaining := len(raw) - countAt - 4
	// remaining/10 is what the old 10-bytes-per-sample floor let through.
	for _, n := range []int{remaining / 10, (remaining-4)/sampleWireSize + 1} {
		binary.BigEndian.PutUint32(raw[countAt:], uint32(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeReport(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d accepted for %d remaining bytes", n, remaining)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent >= uint64(len(raw)) {
			t.Fatalf("rejecting count %d allocated %d bytes for a %d-byte payload", n, spent, len(raw))
		}
	}
	// The largest count the bytes can hold is not refused for its size.
	n := (remaining - 4) / sampleWireSize
	binary.BigEndian.PutUint32(raw[countAt:], uint32(n))
	if _, err := DecodeReport(raw); err == nil || strings.Contains(err.Error(), "implausible") {
		t.Fatalf("count %d: err = %v, want a decoding error past the count check", n, err)
	}
}

// fuzzSeeds are real encodings: the codec's own reports and a d-mon-shaped
// one with padding.
func fuzzSeeds() [][]byte {
	ts := time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC)
	full := &Report{Node: "maui", Seq: 7, Time: ts, Padding: make([]byte, 64)}
	for _, id := range AllIDs() {
		full.Samples = append(full.Samples, Sample{ID: id, Value: float64(id) * 1.5, LastSent: 1, Time: ts})
	}
	return [][]byte{sampleReport().Encode(), (&Report{Node: "x"}).Encode(), full.Encode()}
}

// FuzzDecodeReport: on any bytes the decoder never panics; what it accepts
// re-encodes through AppendEncode to exactly the input; and decoding into a
// dirty, reused Report gives what decoding into a fresh one gives.
func FuzzDecodeReport(f *testing.F) {
	seeds := fuzzSeeds()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var fresh Report
		errFresh := DecodeReportInto(&fresh, buf)
		dirty, err := DecodeReport(seeds[2])
		if err != nil {
			t.Fatal(err)
		}
		errDirty := DecodeReportInto(dirty, buf)
		if (errFresh == nil) != (errDirty == nil) {
			t.Fatalf("fresh decode err = %v, reused decode err = %v", errFresh, errDirty)
		}
		if errFresh != nil {
			return
		}
		// Equal encodings are equal reports, bit for bit: NaN values and
		// all (which == and reflect.DeepEqual would call unequal).
		if got := fresh.AppendEncode(nil); !bytes.Equal(got, buf) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", buf, got)
		}
		if got := dirty.AppendEncode(nil); !bytes.Equal(got, buf) {
			t.Fatalf("reused decode %+v differs from fresh %+v", dirty, &fresh)
		}
	})
}
