package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// frames builds a stream of frames in one buffer.
func frames(t *testing.T, payloads ...[]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestFrameReaderReusesBuffer pins the FrameReader ownership contract: the
// payload from Next aliases the reader's buffer, so a frame read after it
// overwrites it. When each frame arrives in its own read, the very next
// frame does: a consumer that held the slice across Next calls observes the
// new frame's bytes — the violation is caught. When two frames arrive in
// one read, the second is served from the same fill beside the first, whose
// bytes survive until the reader reads again.
func TestFrameReaderReusesBuffer(t *testing.T) {
	t.Run("one frame per read", func(t *testing.T) {
		fr := NewFrameReader(&chunkReader{chunks: [][]byte{
			frames(t, []byte("frame-one")).Bytes(),
			frames(t, []byte("frame-two")).Bytes(),
		}})

		_, p1, err := fr.Next()
		if err != nil || string(p1) != "frame-one" {
			t.Fatalf("first Next = %q, %v", p1, err)
		}
		retained := p1 // contract violation: kept across Next

		_, p2, err := fr.Next()
		if err != nil || string(p2) != "frame-two" {
			t.Fatalf("second Next = %q, %v", p2, err)
		}
		if string(retained) != "frame-two" {
			t.Fatalf("retained slice reads %q; the receive buffer was not reused", retained)
		}
	})
	t.Run("two frames per read", func(t *testing.T) {
		fr := NewFrameReader(&chunkReader{chunks: [][]byte{
			frames(t, []byte("frame-one"), []byte("frame-two")).Bytes(),
			frames(t, []byte("frame-3rd")).Bytes(),
		}})

		_, p1, err := fr.Next()
		if err != nil || string(p1) != "frame-one" {
			t.Fatalf("first Next = %q, %v", p1, err)
		}
		retained := p1 // contract violation: kept across Next

		_, p2, err := fr.Next()
		if err != nil || string(p2) != "frame-two" {
			t.Fatalf("second Next = %q, %v", p2, err)
		}
		if string(retained) != "frame-one" {
			t.Fatalf("retained slice reads %q before any refill; the second frame overwrote the first", retained)
		}
		_, p3, err := fr.Next()
		if err != nil || string(p3) != "frame-3rd" {
			t.Fatalf("third Next = %q, %v", p3, err)
		}
		if string(retained) != "frame-3rd" {
			t.Fatalf("retained slice reads %q after the refill; the receive buffer was not reused", retained)
		}
	})
}

// TestFrameReaderGrowsForLargeFrames pins correctness when frames exceed the
// current buffer: the reader adopts the grown buffer and keeps serving.
func TestFrameReaderGrowsForLargeFrames(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 64<<10)
	stream := frames(t, []byte("small"), big, []byte("again"))
	fr := NewFrameReader(stream)
	for i, want := range [][]byte{[]byte("small"), big, []byte("again")} {
		_, p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(p, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(p), len(want))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after stream end: %v", err)
	}
}

// TestDecodeBatchIntoViewsAliasBuffer pins the zero-copy batch contract:
// decoded events are subslices of the batch buffer, not copies.
func TestDecodeBatchIntoViewsAliasBuffer(t *testing.T) {
	batch := EncodeBatch([][]byte{[]byte("aaaa"), []byte("bbbb")})
	events, err := DecodeBatchInto(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || string(events[0]) != "aaaa" || string(events[1]) != "bbbb" {
		t.Fatalf("events = %q", events)
	}
	// Mutate the underlying buffer; the views must change with it.
	for i := range batch {
		batch[i] = 'Z'
	}
	if string(events[0]) != "ZZZZ" || string(events[1]) != "ZZZZ" {
		t.Fatalf("views did not alias the buffer: %q", events)
	}
}

// TestDecodeBatchIntoReusesDst pins scratch reuse: a recycled dst slice is
// appended into, not reallocated, when capacity suffices.
func TestDecodeBatchIntoReusesDst(t *testing.T) {
	batch := EncodeBatch([][]byte{[]byte("one"), []byte("two"), []byte("three")})
	scratch := make([][]byte, 0, 8)
	events, err := DecodeBatchInto(scratch[:0], batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || cap(events) != 8 {
		t.Fatalf("len=%d cap=%d, want len 3 in the caller's cap-8 scratch", len(events), cap(events))
	}
}

// TestWriteFrameVectoredMatchesFallback pins that the writev fast path on a
// real TCP connection produces byte-identical frames to the generic path.
func TestWriteFrameVectoredMatchesFallback(t *testing.T) {
	payload := bytes.Repeat([]byte("payload"), 100)

	var generic bytes.Buffer
	if err := WriteFrame(&generic, 7, payload); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		all, _ := io.ReadAll(conn)
		done <- all
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, 7, payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	got := <-done
	if !bytes.Equal(got, generic.Bytes()) {
		t.Fatalf("vectored TCP write produced %d bytes, generic %d; frames differ", len(got), generic.Len())
	}
}

// rewindReader serves the same byte stream repeatedly without allocating,
// so allocation tests can drive the receive path in steady state.
type rewindReader struct {
	data []byte
	off  int
}

func (r *rewindReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestSteadyStateReceivePathIsAllocationFree pins the tentpole acceptance
// criterion at the wire layer: reading a frame, unpacking its batch and
// decoding every record allocates nothing once the buffers are warm.
func TestSteadyStateReceivePathIsAllocationFree(t *testing.T) {
	// One batch frame holding three event-shaped records.
	var records [][]byte
	for _, s := range []string{"rec-a", "rec-bb", "rec-ccc"} {
		e := NewEncoder(32)
		e.String("node-1")
		e.Uint64(42)
		e.BytesField([]byte(s))
		records = append(records, e.Bytes())
	}
	var stream bytes.Buffer
	if err := WriteFrame(&stream, 3, EncodeBatch(records)); err != nil {
		t.Fatal(err)
	}

	src := &rewindReader{data: stream.Bytes()}
	fr := NewFrameReader(src)
	var batch [][]byte
	sink := 0
	receive := func() {
		src.off = 0
		_, payload, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		batch, derr = DecodeBatchInto(batch[:0], payload)
		if derr != nil {
			t.Fatal(derr)
		}
		for _, rec := range batch {
			d := NewDecoder(rec)
			from := d.StringBytes()
			seq := d.Uint64()
			body := d.BytesFieldView()
			if d.Finish() != nil || len(from) == 0 || seq != 42 {
				t.Fatal("decode failed")
			}
			sink += len(body)
		}
	}
	receive() // warm the reader buffer and batch scratch
	if avg := testing.AllocsPerRun(200, receive); avg != 0 {
		t.Fatalf("steady-state receive path allocates %.1f times per frame, want 0", avg)
	}
	_ = sink
}
