package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"testing"
	"time"
)

// tcpPair returns the two ends of one loopback TCP connection, closed when
// the test ends.
func tcpPair(tb testing.TB) (client, server *net.TCPConn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		tb.Fatal("accept failed")
	}
	tb.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// readAll collects everything r delivers until EOF on its own goroutine.
func readAll(r io.Reader) <-chan []byte {
	done := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(r)
		done <- all
	}()
	return done
}

// drain reads conn until it closes, on its own goroutine, into a buffer
// allocated before the goroutine starts: allocation counts, which see every
// goroutine, see nothing of it.
func drain(conn net.Conn) {
	buf := make([]byte, 256<<10)
	go func() {
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
}

// referenceFrame is the batch frame as WriteFrame and AppendBatch write it:
// what a BatchWriter must reproduce byte for byte.
func referenceFrame(t *testing.T, typ uint8, records [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, AppendBatch(nil, records)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomBatches draws batches whose record sizes straddle gatherMin, up to a
// 64 KiB record, with the empty batch and batches of one among them. Each
// record's bytes are distinct so a misplaced segment shows.
func randomBatches(seed uint64, n int) [][][]byte {
	sizes := []int{0, 1, gatherMin - 1, gatherMin, gatherMin + 1, 5 << 10, 64 << 10}
	rng := rand.New(rand.NewPCG(seed, 0))
	batches := [][][]byte{nil, {make([]byte, 5<<10)}, {make([]byte, 1)}}
	for len(batches) < n {
		batch := make([][]byte, 1+rng.IntN(20))
		for i := range batch {
			rec := make([]byte, sizes[rng.IntN(len(sizes))])
			for j := range rec {
				rec[j] = byte(rng.Uint32())
			}
			batch[i] = rec
		}
		batches = append(batches, batch)
	}
	return batches
}

// TestBatchWriterMatchesAppendBatch pins that the gathered frame is the same
// frame: over a TCP connection (gathered writes) and over a bytes.Buffer
// (the copying path), one BatchWriter reused across random batches emits
// exactly the bytes of WriteFrame(AppendBatch(…)), and the stream decodes
// through FrameReader and DecodeBatchInto back to the input records.
func TestBatchWriterMatchesAppendBatch(t *testing.T) {
	batches := randomBatches(20030623, 300)
	var want []byte
	for i, batch := range batches {
		want = append(want, referenceFrame(t, uint8(i), batch)...)
	}
	check := func(t *testing.T, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("stream of %d bytes differs from the reference's %d at byte %d", len(got), len(want), n)
		}
		fr := NewFrameReader(bytes.NewReader(got))
		var recs [][]byte
		for i, batch := range batches {
			typ, payload, err := fr.Next()
			if err != nil || typ != uint8(i) {
				t.Fatalf("frame %d: type %d, err %v", i, typ, err)
			}
			if recs, err = DecodeBatchInto(recs[:0], payload); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if len(recs) != len(batch) {
				t.Fatalf("frame %d: %d records, want %d", i, len(recs), len(batch))
			}
			for j := range batch {
				if !bytes.Equal(recs[j], batch[j]) {
					t.Fatalf("frame %d record %d: %d bytes differ from the %d written", i, j, len(recs[j]), len(batch[j]))
				}
			}
		}
	}

	t.Run("tcp", func(t *testing.T) {
		client, server := tcpPair(t)
		done := readAll(server)
		var bw BatchWriter
		for i, batch := range batches {
			if err := bw.WriteFrame(client, uint8(i), batch); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		client.Close()
		check(t, <-done)
	})
	t.Run("buffer", func(t *testing.T) {
		var out bytes.Buffer
		var bw BatchWriter
		for i, batch := range batches {
			if err := bw.WriteFrame(&out, uint8(i), batch); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		check(t, out.Bytes())
	})
}

// TestBatchWriterOversizeWritesNothing pins the contract the kecho writer's
// fall-back to single frames relies on: a batch over MaxFrameSize is refused
// with ErrFrameSize before a byte reaches the connection, which stays usable.
func TestBatchWriterOversizeWritesNothing(t *testing.T) {
	half := make([]byte, MaxFrameSize/2)
	oversize := [][]byte{half, half} // 4 + 2·(4 + MaxFrameSize/2) bytes
	small := [][]byte{[]byte("after"), make([]byte, 5<<10)}

	var out bytes.Buffer
	var bw BatchWriter
	if err := bw.WriteFrame(&out, 3, oversize); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("buffer: err = %v, want ErrFrameSize", err)
	}
	if out.Len() != 0 {
		t.Fatalf("buffer: refused batch wrote %d bytes", out.Len())
	}

	client, server := tcpPair(t)
	done := readAll(server)
	if err := bw.WriteFrame(client, 3, oversize); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("tcp: err = %v, want ErrFrameSize", err)
	}
	if err := bw.WriteFrame(client, 3, small); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if got, want := <-done, referenceFrame(t, 3, small); !bytes.Equal(got, want) {
		t.Fatalf("tcp: connection carried %d bytes, want only the next frame's %d", len(got), len(want))
	}
}

// slowReader reads at most chunk bytes per call and sleeps before each read,
// so a writer with more than the socket buffers can hold meets short writes.
type slowReader struct {
	r     io.Reader
	chunk int
	pause time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.pause)
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.r.Read(p)
}

// TestBatchWriterResumesShortWrites sends a 64 × 5 KiB batch (330 KB)
// through 32 KiB socket buffers to a reader that drains them in 1500-byte
// sips: writev returns short again and again, net.Buffers resumes
// mid-record, and the frame still arrives intact. (Buffers of 4 KiB work
// too, but the transfer then stalls for seconds on TCP's own timers.)
func TestBatchWriterResumesShortWrites(t *testing.T) {
	client, server := tcpPair(t)
	if err := client.SetWriteBuffer(32 << 10); err != nil {
		t.Fatal(err)
	}
	if err := server.SetReadBuffer(32 << 10); err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = make([]byte, 5<<10)
		for j := range batch[i] {
			batch[i][j] = byte(i + j)
		}
	}
	done := readAll(&slowReader{r: server, chunk: 1500, pause: 20 * time.Microsecond})
	var bw BatchWriter
	if err := bw.WriteFrame(client, 3, batch); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if got, want := <-done, referenceFrame(t, 3, batch); !bytes.Equal(got, want) {
		t.Fatalf("got %d bytes, want the reference's %d, byte-identical", len(got), len(want))
	}
}

// TestBatchWriterAllocatesNothing is the gate for the large-record write:
// 64 × 5 KiB records to a loopback TCP connection allocate nothing once the
// writer is warm. Go's integer allocs/op hides large allocations amortised
// over many small operations (a benchmark reports 0 allocs/op at thousands of
// B/op), so this counts allocations per frame directly. Copying the batch
// into a buffer dropped above 64 KiB regrows it from nothing for every such
// frame: 15 allocations a frame.
func TestBatchWriterAllocatesNothing(t *testing.T) {
	client, server := tcpPair(t)
	drain(server)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = make([]byte, 5<<10)
	}
	var bw BatchWriter
	write := func() {
		if err := bw.WriteFrame(client, 3, batch); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if avg := testing.AllocsPerRun(100, write); avg != 0 {
		t.Fatalf("a 64 × 5 KiB batch frame allocates %.2f times per write, want 0", avg)
	}
}

// batchSeeds are real batch payloads for FuzzDecodeBatch: the records a
// kecho channel sends (origin, seq, body, hop trailer), one to three of them,
// the empty batch, and a batch of 5 KiB records the writer gathers.
func batchSeeds() [][]byte {
	record := func(seq uint64, body []byte) []byte {
		r := AppendString(nil, "node-1")
		r = binary.BigEndian.AppendUint64(r, seq)
		r = AppendBytesField(r, body)
		return AppendHopExt(r, 1)
	}
	large := make([]byte, 5<<10)
	for i := range large {
		large[i] = byte(i)
	}
	return [][]byte{
		AppendBatch(nil, nil),
		AppendBatch(nil, [][]byte{record(1, []byte("loadavg 0.42"))}),
		AppendBatch(nil, [][]byte{record(1, nil), record(2, []byte("x")), {}}),
		AppendBatch(nil, [][]byte{record(7, large), record(8, large), record(9, large)}),
	}
}

// FuzzDecodeBatch holds the batch codec to a round trip on any bytes: the
// decoder never panics, and a payload it accepts re-encodes byte for byte
// through AppendBatch and, framed, through a BatchWriter.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add(s)
	}
	var bw BatchWriter
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := DecodeBatchInto(nil, payload)
		if err != nil {
			return
		}
		if got := AppendBatch(nil, recs); !bytes.Equal(got, payload) {
			t.Fatalf("AppendBatch re-encoding differs:\n in  %x\n out %x", payload, got)
		}
		var out bytes.Buffer
		if err := bw.WriteFrame(&out, 3, recs); err != nil {
			t.Fatal(err)
		}
		var hdr [HeaderSize]byte
		putHeader(hdr[:], 3, len(payload))
		if got := out.Bytes(); !bytes.HasPrefix(got, hdr[:]) || !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("BatchWriter frame differs:\n in  %x\n out %x", payload, got)
		}
	})
}

// BenchmarkBatchWrite times one 64-record batch frame onto a loopback TCP
// connection drained by another goroutine, per record size, with every
// record copied into the writer's buffer (copy) against every record sent
// from its own memory (gather). gatherMin is set from where gather starts to
// win; DESIGN §8 has the table.
func BenchmarkBatchWrite(b *testing.B) {
	for _, size := range []int{64, 256, 512, 1 << 10, 1536, 2 << 10, 4 << 10, 5 << 10} {
		batch := make([][]byte, 64)
		for i := range batch {
			batch[i] = make([]byte, size)
		}
		for _, mode := range []struct {
			name      string
			minGather int
		}{{"copy", MaxFrameSize + 1}, {"gather", 0}} {
			b.Run(fmt.Sprintf("%dB/%s", size, mode.name), func(b *testing.B) {
				client, server := tcpPair(b)
				drain(server)
				var bw BatchWriter
				b.SetBytes(int64(HeaderSize + 4 + len(batch)*(4+size)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bw.writeFrame(client, 3, batch, mode.minGather); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
