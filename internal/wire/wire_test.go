package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	ts := time.Date(2003, 6, 23, 12, 0, 0, 12345, time.UTC)
	e.Uint8(7)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(65535)
	e.Uint32(1 << 30)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Float64(3.14159)
	e.Time(ts)
	e.String("loadavg")
	e.BytesField([]byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 7 {
		t.Errorf("Uint8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Uint16(); got != 65535 {
		t.Errorf("Uint16 = %d", got)
	}
	if got := d.Uint32(); got != 1<<30 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Time(); !got.Equal(ts) {
		t.Errorf("Time = %v, want %v", got, ts)
	}
	if got := d.String(); got != "loadavg" {
		t.Errorf("String = %q", got)
	}
	if got := d.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("BytesField = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.Uint32() // needs 4 bytes, only 2 available
	if !errors.Is(d.Err(), ErrShortField) {
		t.Fatalf("Err = %v, want ErrShortField", d.Err())
	}
	// Every later read must return zero values, not panic.
	if d.Uint64() != 0 || d.String() != "" || d.BytesField() != nil {
		t.Fatal("reads after error returned non-zero values")
	}
	if !d.Time().IsZero() {
		t.Fatal("Time after error not zero")
	}
	if err := d.Finish(); !errors.Is(err, ErrShortField) {
		t.Fatalf("Finish = %v, want ErrShortField", err)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(1)
	e.Uint32(2)
	d := NewDecoder(e.Bytes())
	_ = d.Uint32()
	if err := d.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Finish = %v, want ErrTrailing", err)
	}
}

func TestDecoderRemaining(t *testing.T) {
	d := NewDecoder(make([]byte, 10))
	if d.Remaining() != 10 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
	d.Uint16()
	if d.Remaining() != 8 {
		t.Fatalf("Remaining after Uint16 = %d", d.Remaining())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(99)
	if e.Len() != 8 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
}

func TestBytesFieldIsCopy(t *testing.T) {
	e := NewEncoder(16)
	e.BytesField([]byte{9, 9, 9})
	buf := e.Bytes()
	d := NewDecoder(buf)
	out := d.BytesField()
	buf[4] = 0 // mutate backing buffer; decoded copy must be unaffected
	if out[0] != 9 {
		t.Fatal("BytesField aliases the decoder buffer")
	}
}

// TestFrameRoundTrip includes payloads past readSlack, which ReadFrame
// reads into a buffer it doubles as the bytes arrive.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{16, readSlack + 1, 5<<10 + 3, 20<<10 + 3} {
		var buf bytes.Buffer
		payload := make([]byte, n)
		rng.Read(payload)
		if err := WriteFrame(&buf, 3, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != 3 {
			t.Errorf("type = %d, want 3", typ)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%d-byte payload read back as %d bytes, not equal", n, len(got))
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, nil); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != 1 || len(payload) != 0 {
		t.Fatalf("ReadFrame = (%d, %v, %v)", typ, payload, err)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, uint8(i), []byte{byte(i)}); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != uint8(i) || payload[0] != byte(i) {
			t.Fatalf("frame %d: type=%d payload=%v", i, typ, payload)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame, err = %v, want EOF", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	raw := []byte{0xDE, 0xAD, 1, 0, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4], raw[5], raw[6], raw[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestWriteFrameOversizedPayload(t *testing.T) {
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, 0, big); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "short frame payload") {
		t.Fatalf("err = %v, want short payload error", err)
	}
}

// Property: any (string, bytes, uint64, float64) tuple survives a round trip.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(s string, b []byte, u uint64, fl float64, i int64) bool {
		e := NewEncoder(0)
		e.String(s)
		e.BytesField(b)
		e.Uint64(u)
		e.Float64(fl)
		e.Int64(i)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.BytesField()
		gu := d.Uint64()
		gf := d.Float64()
		gi := d.Int64()
		if d.Finish() != nil {
			return false
		}
		floatOK := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gs == s && bytes.Equal(gb, b) && gu == u && floatOK && gi == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frames survive a round trip for arbitrary payloads and types.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			return false
		}
		gt, gp, err := ReadFrame(&buf)
		return err == nil && gt == typ && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a decoder never panics on arbitrary garbage input.
func TestQuickDecoderNoPanic(t *testing.T) {
	f := func(raw []byte) bool {
		d := NewDecoder(raw)
		_ = d.String()
		_ = d.BytesField()
		_ = d.Uint64()
		_ = d.Float64()
		_ = d.Time()
		_ = d.Finish()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},               // empty batch
		{[]byte("solo")}, // single event
		{nil},            // single empty event
		{[]byte("a"), []byte(""), []byte("ccc"), {0xDC, 0x03}}, // mixed
	}
	for _, events := range cases {
		buf := EncodeBatch(events)
		got, err := DecodeBatchInto(nil, buf)
		if err != nil {
			t.Fatalf("DecodeBatchInto(%d events): %v", len(events), err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range events {
			if !bytes.Equal(got[i], events[i]) {
				t.Fatalf("event %d = %q, want %q", i, got[i], events[i])
			}
		}
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	cases := map[string][]byte{
		"truncated count":   {0, 0, 1},
		"count over buffer": {0xFF, 0xFF, 0xFF, 0xFF},
		"short event":       EncodeBatch([][]byte{[]byte("abcd")})[:8],
		"trailing bytes":    append(EncodeBatch([][]byte{[]byte("x")}), 0x01),
	}
	for name, buf := range cases {
		if _, err := DecodeBatchInto(nil, buf); err == nil {
			t.Errorf("%s: DecodeBatchInto succeeded on %v", name, buf)
		}
	}
}

// Property: DecodeBatchInto never panics on arbitrary garbage input.
func TestQuickDecodeBatchNoPanic(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = DecodeBatchInto(nil, raw)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
