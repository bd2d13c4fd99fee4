package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// ReadFrame reads one frame from r, returning its type and a freshly
// allocated payload the caller owns. It reads exactly the frame's bytes —
// the header, then the payload — so a caller may go on reading r after it.
// It is the exact-read oracle FuzzFrameReader holds FrameReader to.
func ReadFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	msgType, n, err := parseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(r, n); err != nil {
		return 0, nil, shortPayload(err)
	}
	return msgType, payload, nil
}

// readPayload reads an n-byte payload from r into a buffer of at most
// readSlack bytes that doubles, capped at n, each time it fills: a header
// claiming more than the stream holds costs about what arrived, not what
// it claimed, so the fuzzer's huge claims stay cheap for the oracle too.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readSlack))
	got := 0
	for {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		got = len(buf)
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// chunkReader hands out its chunks one Read each (a chunk longer than the
// Read's buffer is handed out over several): what a socket returns when
// each chunk arrives in its own wake-up.
type chunkReader struct{ chunks [][]byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// countingReader counts the Reads a FrameReader makes of r, and the most
// bytes the reader's compaction moved between two of them.
type countingReader struct {
	r        io.Reader
	fr       *FrameReader
	reads    int
	movedAt  int // fr.moved at the previous Read
	maxMoved int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	c.maxMoved = max(c.maxMoved, c.fr.moved-c.movedAt)
	c.movedAt = c.fr.moved
	return c.r.Read(p)
}

// countedReader returns a FrameReader over stream and the counter of its
// reads.
func countedReader(stream []byte) (*FrameReader, *countingReader) {
	c := &countingReader{r: bytes.NewReader(stream)}
	c.fr = NewFrameReader(c)
	return c.fr, c
}

// TestFrameReaderReadsPerWakeup pins the receive path's syscall count: the
// small frames already waiting cost one Read between them, a frame whose
// payload exceeds readSlack costs exactly two and is never moved, and no
// Read is preceded by a move of more than readSlack bytes, whatever the mix.
func TestFrameReaderReadsPerWakeup(t *testing.T) {
	t.Run("small frames in the slack", func(t *testing.T) {
		payload := bytes.Repeat([]byte("s"), 64)
		k := readSlack / (HeaderSize + len(payload))
		var stream bytes.Buffer
		for i := 0; i < k; i++ {
			if err := WriteFrame(&stream, 2, payload); err != nil {
				t.Fatal(err)
			}
		}
		fr, c := countedReader(stream.Bytes())
		for i := 0; i < k; i++ {
			if _, p, err := fr.Next(); err != nil || !bytes.Equal(p, payload) {
				t.Fatalf("frame %d: %q, %v", i, p, err)
			}
		}
		if c.reads != 1 || fr.moved != 0 {
			t.Fatalf("%d frames of 64 B took %d Reads and moved %d bytes, want 1 and 0", k, c.reads, fr.moved)
		}
	})
	t.Run("large frames", func(t *testing.T) {
		const frames = 4
		payload := bytes.Repeat([]byte("L"), 5<<10)
		var stream bytes.Buffer
		for i := 0; i < frames; i++ {
			if err := WriteFrame(&stream, 2, payload); err != nil {
				t.Fatal(err)
			}
		}
		fr, c := countedReader(stream.Bytes())
		for i := 0; i < frames; i++ {
			before := c.reads
			if _, p, err := fr.Next(); err != nil || !bytes.Equal(p, payload) {
				t.Fatalf("frame %d: %d bytes, %v", i, len(p), err)
			}
			if n := c.reads - before; n != 2 {
				t.Fatalf("5 KiB frame %d took %d Reads, want 2", i, n)
			}
		}
		if fr.moved != 0 {
			t.Fatalf("5 KiB frames moved %d bytes, want 0", fr.moved)
		}
		if want := HeaderSize + len(payload); len(fr.buf) != want {
			t.Fatalf("buffer is %d bytes, want %d (header + largest frame)", len(fr.buf), want)
		}
	})
	t.Run("mixed stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		sizes := []int{0, 1, 64, 136, 1 << 10, readSlack - 1, readSlack, readSlack + 1, 5 << 10, 20 << 10}
		var stream bytes.Buffer
		var want [][]byte
		largest := 0
		for i := 0; i < 400; i++ {
			p := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(p)
			largest = max(largest, len(p))
			want = append(want, p)
			if err := WriteFrame(&stream, uint8(i), p); err != nil {
				t.Fatal(err)
			}
		}
		fr, c := countedReader(stream.Bytes())
		for i, w := range want {
			typ, p, err := fr.Next()
			if err != nil || typ != uint8(i) || !bytes.Equal(p, w) {
				t.Fatalf("frame %d: type %d, %d bytes, %v; want type %d, %d bytes", i, typ, len(p), err, uint8(i), len(w))
			}
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
		if c.maxMoved > readSlack {
			t.Fatalf("a Read came after moving %d bytes, more than the slack (%d)", c.maxMoved, readSlack)
		}
		if bound := HeaderSize + max(readSlack, largest); len(fr.buf) > bound {
			t.Fatalf("buffer is %d bytes, past header + max(slack, largest frame) = %d", len(fr.buf), bound)
		}
		if c.reads >= 2*len(want) {
			t.Fatalf("%d frames took %d Reads, no fewer than two a frame", len(want), c.reads)
		}
	})
}

// TestHeaderClaimAllocatesOnlyWhatArrives sends a header claiming the
// largest payload a frame may carry, then ends the stream: the reader may
// not allocate the claimed payload before its bytes arrive, whether the
// header opens the connection or follows a frame already served from it (a
// registry connection's next request), since any peer that reaches a
// listener can send such a header for free.
func TestHeaderClaimAllocatesOnlyWhatArrives(t *testing.T) {
	hdr := make([]byte, HeaderSize)
	putHeader(hdr, 2, MaxFrameSize)
	var served bytes.Buffer
	if err := WriteFrame(&served, 1, []byte("request")); err != nil {
		t.Fatal(err)
	}
	served.Write(hdr)
	for _, tc := range []struct {
		name   string
		stream []byte
		read   func(io.Reader) error
	}{
		{"FrameReader.Next", hdr, func(r io.Reader) error { _, _, err := NewFrameReader(r).Next(); return err }},
		{"FrameReader.Next after a frame", served.Bytes(), func(r io.Reader) error {
			fr := NewFrameReader(r)
			if _, _, err := fr.Next(); err != nil {
				return err
			}
			_, _, err := fr.Next()
			return err
		}},
	} {
		r := bytes.NewReader(tc.stream)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: %v, want io.ErrUnexpectedEOF", tc.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Fatalf("%s allocated %d bytes for a header alone, want under 64 KiB", tc.name, n)
		}
	}
}

// splitReader serves data in reads whose sizes cycle through sizes (1 to
// 256 bytes each; unlimited when sizes is empty), returning io.EOF with the
// last bytes, as an io.Reader may.
type splitReader struct {
	data  []byte
	sizes []byte
	reads int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	if len(s.sizes) > 0 {
		p = p[:min(len(p), int(s.sizes[s.reads%len(s.sizes)])+1)]
	}
	s.reads++
	n := copy(p, s.data)
	s.data = s.data[n:]
	if len(s.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// FuzzFrameReader holds FrameReader to the exact-read ReadFrame on any byte
// stream split at any read sizes: the same frames, then the same first
// error, and never a panic. A payload is capped at its own length, and one
// served from the same fill as the frame before it leaves that frame's
// bytes intact: no payload aliases a later frame.
func FuzzFrameReader(f *testing.F) {
	var ok bytes.Buffer
	for _, p := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("m"), 64)} {
		if err := WriteFrame(&ok, 2, p); err != nil {
			f.Fatal(err)
		}
	}
	// The head of a frame too large for the slack: seeds stay small, since
	// the fuzzer minimizes every input that finds new coverage and takes
	// long over kilobytes.
	large := make([]byte, HeaderSize, HeaderSize+2)
	putHeader(large, 2, readSlack+1)
	large = append(large, "LL"...)
	// A header claiming the largest payload, then almost nothing.
	huge := make([]byte, HeaderSize, HeaderSize+2)
	putHeader(huge, 2, MaxFrameSize)
	huge = append(huge, "HH"...)
	f.Add(ok.Bytes(), []byte(nil))
	f.Add(ok.Bytes(), []byte{0, 7, 255})
	f.Add(ok.Bytes()[:ok.Len()-3], []byte{100})
	f.Add(ok.Bytes()[:HeaderSize+3], []byte{1})
	f.Add(ok.Bytes()[:HeaderSize], []byte(nil))
	f.Add(ok.Bytes()[:5], []byte(nil))
	f.Add(append(ok.Bytes()[:HeaderSize:HeaderSize], large...), []byte{3})
	f.Add([]byte{0xDE, 0xAD, 1, 0, 0, 0, 0, 0}, []byte(nil))
	f.Add([]byte{0xDC, 0x03, 9, 0, 0, 0, 0, 0}, []byte(nil))
	f.Add([]byte{0xDC, 0x03, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}, []byte(nil))
	f.Add(huge, []byte{200})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		oracle := bytes.NewReader(data)
		src := &splitReader{data: data, sizes: sizes}
		fr := NewFrameReader(src)
		var prev, prevCopy []byte
		prevReads := -1
		for i := 0; ; i++ {
			wantTyp, want, wantErr := ReadFrame(oracle)
			typ, got, err := fr.Next()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("frame %d: error %v, ReadFrame's %v", i, err, wantErr)
			}
			if wantErr != nil {
				return
			}
			if typ != wantTyp || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: type %d, %x; ReadFrame's type %d, %x", i, typ, got, wantTyp, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("frame %d: payload of %d bytes has capacity %d", i, len(got), cap(got))
			}
			if src.reads == prevReads && !bytes.Equal(prev, prevCopy) {
				t.Fatalf("frame %d, served from frame %d's fill, overwrote it", i, i-1)
			}
			prev, prevCopy, prevReads = got, append(prevCopy[:0], got...), src.reads
		}
	})
}

// loopReader serves data over and over, as much of it per Read as fits,
// never crossing the end of data in one Read: a socket whose peer sends
// len(data) bytes per wake-up.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// BenchmarkFrameReader times Next per frame over an in-memory source that
// delivers 64 frames a wake-up: 64 B frames, served many a Read, and 5 KiB
// frames, two Reads each. It is in make allocgate at 0 allocs/op.
func BenchmarkFrameReader(b *testing.B) {
	for _, size := range []int{64, 5 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			var stream bytes.Buffer
			for i := 0; i < 64; i++ {
				if err := WriteFrame(&stream, 2, make([]byte, size)); err != nil {
					b.Fatal(err)
				}
			}
			fr := NewFrameReader(&loopReader{data: stream.Bytes()})
			b.SetBytes(int64(HeaderSize + size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fr.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
