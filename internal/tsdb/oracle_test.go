package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// readBits is read with its error, the form the bit-level tests check.
func (r *bitReader) readBits(n uint) (uint64, error) {
	v := r.read(n)
	return v, r.err
}

// stream returns a copy of the writer's stream, buf and the used bytes of
// the pending word, leaving the writer untouched.
func (w *bitWriter) stream() []byte {
	out := binary.BigEndian.AppendUint64(append([]byte(nil), w.buf...), w.cur)
	return out[:w.size()]
}

// The writer before the pending word, kept verbatim (renamed: refBitWriter)
// as the oracle FuzzBitWriterParity holds bitWriter to.

// refBitWriter appends bits to a byte buffer, most-significant bit first.
//
// It works a word at a time: a write stores the bits as one big-endian
// 64-bit word past the end of buf and keeps only the bytes it used. Two
// invariants make that produce the same bytes as a bit-at-a-time loop:
// the unused low bits of the final byte are always zero, because the next
// write ORs into them; and buf's capacity past its length is scratch
// (callers sizing a buffer leave 8 spare bytes so the word store does not
// grow it).
type refBitWriter struct {
	buf  []byte
	free uint // unused low-order bits in the final byte
}

// writeZero appends one 0 bit — the one-bit code of an unchanged field, the
// commonest write there is. It inlines, and within the last byte it only
// counts the bit: the unused bits there are already zero.
func (w *refBitWriter) writeZero() {
	if w.free > 0 {
		w.free--
		return
	}
	w.writeBits(0, 1)
}

// writeBits appends the n low-order bits of v (n <= 64), most-significant
// first.
func (w *refBitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	v <<= 64 - n // left-aligned: the n bits lead, zeros follow
	if w.free > 0 {
		w.buf[len(w.buf)-1] |= byte(v >> (64 - w.free))
		if n <= w.free {
			w.free -= n
			return
		}
		v <<= w.free
		n -= w.free
	}
	used := (n + 7) / 8
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	w.buf = w.buf[:len(w.buf)-8+int(used)]
	w.free = used*8 - n
}

// bytes returns the packed buffer (the final byte may be partially used).
func (w *refBitWriter) bytes() []byte { return w.buf }

// The decoder before the word-speed reader, kept verbatim (renamed: refBitReader,
// refDod, refXor) as the oracle FuzzChunkDecodeParity holds the decoder to.

type refBitReader struct {
	buf  []byte
	idx  int
	used uint // bits already consumed from buf[idx]
}

func (r *refBitReader) readBit() (uint64, error) {
	if r.idx >= len(r.buf) {
		return 0, errExhausted
	}
	bit := uint64(r.buf[r.idx]>>(7-r.used)) & 1
	r.used++
	r.idx += int(r.used >> 3)
	r.used &= 7
	return bit, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	if n <= 64-r.used && len(r.buf)-r.idx >= 8 {
		v := binary.BigEndian.Uint64(r.buf[r.idx:]) << r.used >> (64 - n)
		r.used += n
		r.idx += int(r.used / 8)
		r.used %= 8
		return v, nil
	}
	var v uint64
	for n > 0 {
		if r.idx >= len(r.buf) {
			return 0, errExhausted
		}
		avail := 8 - r.used
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(r.buf[r.idx]) >> (avail - take) & (1<<take - 1)
		v = v<<take | chunk
		r.used += take
		if r.used == 8 {
			r.idx++
			r.used = 0
		}
		n -= take
	}
	return v, nil
}

type refDod struct {
	prev, delta int64
}

func (s *refDod) read(r *refBitReader) (int64, error) {
	n := uint(0) // the class: leading 1 bits, at most 4
	for n < 4 {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			break
		}
		n++
	}
	var dod int64
	widths := [5]uint{0, 14, 24, 36, 64}
	if w := widths[n]; w > 0 {
		raw, err := r.readBits(w)
		if err != nil {
			return 0, err
		}
		if w < 64 && raw&(1<<(w-1)) != 0 { // sign-extend
			raw |= ^uint64(0) << w
		}
		dod = int64(raw)
	}
	s.delta += dod
	s.prev += s.delta
	return s.prev, nil
}

type refXor struct {
	prev              uint64
	leading, trailing uint8 // the window of the last '11' block
	haveWin           bool
}

func (s *refXor) read(r *refBitReader) (uint64, error) {
	bit, err := r.readBit()
	if err != nil || bit == 0 {
		return s.prev, err
	}
	ctrl, err := r.readBit()
	if err != nil {
		return 0, err
	}
	if ctrl == 1 {
		head, err := r.readBits(6 + 6)
		if err != nil {
			return 0, err
		}
		lead, sigm1 := head>>6, head&(1<<6-1)
		if lead+sigm1+1 > 64 {
			return 0, fmt.Errorf("tsdb: corrupt xor window")
		}
		s.leading, s.trailing, s.haveWin = uint8(lead), uint8(64-lead-sigm1-1), true
	} else if !s.haveWin {
		return 0, fmt.Errorf("tsdb: xor reuse before window")
	}
	mbits, err := r.readBits(64 - uint(s.leading) - uint(s.trailing))
	if err != nil {
		return 0, err
	}
	s.prev ^= mbits << s.trailing
	return s.prev, nil
}

// refPoints decodes count samples of a chunk the old way: the points before
// the first error, and that error.
func refPoints(data []byte, count int) ([]Point, error) {
	r := refBitReader{buf: data}
	var ts refDod
	var vs refXor
	var out []Point
	for i := 0; i < count; i++ {
		var t int64
		var vb uint64
		var err error
		if i == 0 {
			var tb uint64
			if tb, err = r.readBits(64); err == nil {
				vb, err = r.readBits(64)
			}
			t = int64(tb)
			ts, vs = refDod{prev: t}, refXor{prev: vb}
		} else if t, err = ts.read(&r); err == nil {
			vb, err = vs.read(&r)
		}
		if err != nil {
			return out, err
		}
		out = append(out, Point{T: t, V: math.Float64frombits(vb)})
	}
	return out, nil
}

// refBuckets decodes n buckets of a tier bucket chunk the old way.
func refBuckets(data []byte, n int, first, interval int64) ([]Bucket, error) {
	r := refBitReader{buf: data}
	start := refDod{prev: first - interval, delta: interval}
	var cols [bucketCols]refXor
	var out []Bucket
	for i := 0; i < n; i++ {
		st, err := start.read(&r)
		if err != nil {
			return out, err
		}
		var col [bucketCols]uint64
		for k := range cols {
			if col[k], err = cols[k].read(&r); err != nil {
				return out, err
			}
		}
		out = append(out, bucketOf(st, &col))
	}
	return out, nil
}

// sameErr reports whether two decode errors are the same failure.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkChunkParity decodes c with ChunkIter and with the oracle and fails t
// unless both yield the same points, bit for bit, and stop at the same
// sample with the same error.
func checkChunkParity(t *testing.T, kind string, c *Chunk) {
	t.Helper()
	want, wantErr := refPoints(c.Data(), c.Summary().Count)
	it := c.Iter()
	var got []Point
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		got = append(got, p)
	}
	if len(got) != len(want) || !sameErr(it.Err(), wantErr) {
		t.Fatalf("%s: %d points, err %v; oracle %d points, err %v", kind, len(got), it.Err(), len(want), wantErr)
	}
	for i := range got {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("%s: point %d = %+v, oracle %+v", kind, i, got[i], want[i])
		}
	}
}

// FuzzChunkDecodeParity holds the word-speed decoder to the bit-at-a-time
// one it replaced: any bytes, with any sample count, decode to the same
// points and fail at the same sample with the same error, as a sealed
// chunk, as a head chunk (whose buffer has written-over spare capacity
// past its length, which the reader must never see) and as a tier bucket
// chunk. Seeded with FuzzChunkIter's seeds and with full-entropy, constant
// and step series.
func FuzzChunkDecodeParity(f *testing.F) {
	for _, c := range parityChunks() {
		f.Add(c.Data(), uint16(c.Summary().Count))
	}
	s := NewSeries(Options{Tiers: []TierSpec{{Interval: 10 * time.Second}}})
	for i := 1; i <= 20*bucketsPerChunk; i++ {
		s.Append(int64(i)*1e9, mixValue(0, uint64(i)))
	}
	for _, c := range s.tiers[0].sealed {
		f.Add(c.buf, uint16(c.n))
	}
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		n := int(count)
		checkChunkParity(t, "sealed", newSealedChunk(Summary{Count: n}, data))

		spare := append(make([]byte, 0, len(data)+16), data...)
		for i := len(data); i < cap(spare); i++ {
			spare[:cap(spare)][i] = 0xa5
		}
		checkChunkParity(t, "head", headChunkOf(spare, n))

		const first, interval = int64(1056326400e9), int64(10e9)
		want, wantErr := refBuckets(data, n, first, interval)
		r := newBitReader(data)
		dec := newBucketCodec(first, interval)
		for i := 0; i < n; i++ {
			b := dec.read(&r)
			if r.err != nil {
				if i != len(want) || !sameErr(r.err, wantErr) {
					t.Fatalf("bucket chunk: bucket %d: err %v; oracle %d buckets, err %v", i, r.err, len(want), wantErr)
				}
				return
			}
			if i >= len(want) || !sameBucketBits(b, want[i]) {
				t.Fatalf("bucket chunk: bucket %d = %+v; oracle %d buckets, err %v", i, b, len(want), wantErr)
			}
		}
		if len(want) != n || wantErr != nil {
			t.Fatalf("bucket chunk: %d buckets; oracle %d, err %v", n, len(want), wantErr)
		}
	})
}

// headChunkOf returns a head chunk of count samples whose stream is data:
// the whole words of data in its buffer, with the buffer's spare capacity
// as the caller left it, and the rest as the writer's pending word.
func headChunkOf(data []byte, count int) *Chunk {
	words := len(data) / 8 * 8
	var tail [8]byte
	copy(tail[:], data[words:])
	w := bitWriter{buf: data[:words], cur: binary.BigEndian.Uint64(tail[:]), n: uint(len(data)-words) * 8}
	return &Chunk{w: w, summary: Summary{Count: count}}
}

func sameBucketBits(a, b Bucket) bool {
	ac, bc := a.columns(), b.columns()
	return a.Start == b.Start && ac == bc
}

// parityChunks are FuzzChunkIter's seed chunks and the series shapes at the
// edges of the codecs: full-entropy values (every XOR block 50 to 64 bits
// wide), a constant (one bit per value) and a step series (a window opened
// once and reused), each also with jittered timestamps.
func parityChunks() []*Chunk {
	var out []*Chunk
	for m := 0; m < 3; m++ {
		out = append(out, mixChunk(m, 40))
	}
	var c Chunk
	ts := int64(0)
	for i, d := range []int64{1e9, 1e9, 1e9 + 1<<12, 1e9 - 1<<22, 1e9 + 1<<34, 1e9 + 1<<40} {
		ts += d
		c.Append(ts, float64(i)/3)
	}
	out = append(out, &c)
	rng := rand.New(rand.NewSource(20030623))
	shapes := []func(i int) float64{
		func(int) float64 { return math.Float64frombits(rng.Uint64()) },
		func(int) float64 { return 4.25 },
		func(i int) float64 { return float64(i/16) * 1.5 },
	}
	for _, jitter := range []int64{0, 1 << 20} {
		for _, v := range shapes {
			c := &Chunk{}
			ts := int64(1056326400e9)
			for i := 0; i < DefaultChunkSize; i++ {
				ts += 1e9 + rng.Int63n(jitter+1)
				c.Append(ts, v(i))
			}
			out = append(out, c)
		}
	}
	return out
}

// TestChunkDecodeParity runs the parity check over the seed chunks, each
// cut at every byte, outside the fuzzer.
func TestChunkDecodeParity(t *testing.T) {
	for k, c := range parityChunks() {
		data := c.Data()
		for cut := 0; cut <= len(data); cut++ {
			checkChunkParity(t, fmt.Sprintf("chunk %d cut %d", k, cut), newSealedChunk(c.Summary(), data[:cut]))
		}
	}
}
