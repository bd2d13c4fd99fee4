package tsdb

import (
	"errors"
	"math"
	"math/bits"
)

// Point is one timestamped sample. T is nanoseconds since the Unix epoch
// (time.Time.UnixNano), V the sampled value.
type Point struct {
	T int64
	V float64
}

// Summary is the pre-computed digest a chunk maintains while samples are
// appended. Windowed queries fold summaries of fully-covered chunks
// directly, decoding only the chunks that straddle a window edge.
type Summary struct {
	Count       int
	TMin, TMax  int64
	First, Last float64
	Min, Max    float64
	Sum         float64
}

// fold merges other (a later time range) into s.
func (s *Summary) fold(other Summary) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = other
		return
	}
	s.Count += other.Count
	s.TMax = other.TMax
	s.Last = other.Last
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.Sum += other.Sum
}

func (s *Summary) observe(t int64, v float64) {
	if s.Count == 0 {
		s.TMin, s.First, s.Min, s.Max = t, v, v, v
	} else {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Count++
	s.TMax = t
	s.Last = v
	s.Sum += v
}

// Chunk is an append-only Gorilla-compressed block of points. Timestamps
// are delta-of-delta encoded, values XOR encoded against their predecessor.
// A Chunk is not safe for concurrent use; Series/DB serialize access.
//
// Bit layout, per sample:
//
//	sample 0:  64-bit timestamp, 64-bit value
//	sample i:  dod class + payload (dodCodec), then value XOR block (xorCodec)
//
// Samples appended at a fixed period (the common monitoring case) cost one
// bit of timestamp, and unchanged values one bit of value: two bits per
// sample between value changes.
type Chunk struct {
	w       bitWriter
	summary Summary
	t       dodCodec
	v       xorCodec
}

// Append adds a point. Timestamps must be strictly increasing; the caller
// (Series) enforces that.
func (c *Chunk) Append(t int64, v float64) {
	vb := math.Float64bits(v)
	if c.summary.Count == 0 {
		c.w.writeBits(uint64(t), 64)
		c.w.writeBits(vb, 64)
		c.t, c.v = dodCodec{prev: t}, xorCodec{prev: vb}
	} else {
		c.t.write(&c.w, t)
		c.v.write(&c.w, vb)
	}
	c.summary.observe(t, v)
}

// dodCodec is the timestamp half of the Gorilla codec: each value is stored
// as its delta-of-delta against the two before it,
//
//	dod = 0                     → '0'
//	dod in ±2¹³                 → '10'   + 14-bit two's complement
//	dod in ±2²³                 → '110'  + 24-bit two's complement
//	dod in ±2³⁵                 → '1110' + 36-bit two's complement
//	else                        → '1111' + 64-bit raw
//
// so a value that keeps its predecessor's spacing costs one bit. Arithmetic
// wraps, so any int64 sequence round-trips. The writer and the reader start
// from the same state and stay in step.
type dodCodec struct {
	prev, delta int64
}

func (s *dodCodec) write(w *bitWriter, t int64) {
	delta := t - s.prev
	dod := delta - s.delta
	s.prev, s.delta = t, delta
	// Class prefix and payload go out as one write where they fit 64 bits.
	switch {
	case dod == 0:
		w.writeZero()
	case dod >= -(1<<13) && dod < 1<<13:
		w.writeBits(0b10<<14|uint64(dod)&(1<<14-1), 2+14)
	case dod >= -(1<<23) && dod < 1<<23:
		w.writeBits(0b110<<24|uint64(dod)&(1<<24-1), 3+24)
	case dod >= -(1<<35) && dod < 1<<35:
		w.writeBits(0b1110<<36|uint64(dod)&(1<<36-1), 4+36)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(uint64(dod), 64)
	}
}

// dodWidths is the payload width of each class below '1111'.
var dodWidths = [4]uint{0, 14, 24, 36}

// xorCodec is the value half of the Gorilla codec: each 64-bit word is
// XORed with its predecessor and stored as
//
//	xor = 0                     → '0'
//	xor fits previous window    → '10' + meaningful bits
//	else                        → '11' + 6-bit leading-zero count
//	                                   + 6-bit (significant bits - 1)
//	                                   + significant bits
//
// so an unchanged word costs one bit. The writer and the reader start from
// the same state and stay in step.
type xorCodec struct {
	prev              uint64
	leading, trailing uint8 // the window of the last '11' block
	haveWin           bool
}

func (s *xorCodec) write(w *bitWriter, vb uint64) {
	xor := vb ^ s.prev
	s.prev = vb
	if xor == 0 {
		w.writeZero()
		return
	}
	lead := uint(bits.LeadingZeros64(xor))
	if lead > 63 {
		lead = 63
	}
	trail := uint(bits.TrailingZeros64(xor))
	// Control bits, header and meaningful bits go out as one write where
	// they fit 64 bits.
	if s.haveWin && lead >= uint(s.leading) && trail >= uint(s.trailing) {
		n := 64 - uint(s.leading) - uint(s.trailing)
		if n > 62 {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>s.trailing, n)
		} else {
			w.writeBits(0b10<<n|xor>>s.trailing, 2+n)
		}
		return
	}
	sig := 64 - lead - trail
	head := 0b11<<12 | uint64(lead)<<6 | uint64(sig-1)
	if sig > 50 {
		w.writeBits(head, 2+6+6)
		w.writeBits(xor>>trail, sig)
	} else {
		w.writeBits(head<<sig|xor>>trail, 2+6+6+sig)
	}
	s.leading, s.trailing, s.haveWin = uint8(lead), uint8(trail), true
}

var (
	errCorruptWindow = errors.New("tsdb: corrupt xor window")
	errReuseNoWindow = errors.New("tsdb: xor reuse before window")
)

// read decodes one timestamp. The window is copied into locals and stored
// back once, so it stays in registers; the class is the count of leading 1
// bits at the top of the window, at most 4, and the payload of every class
// but the last comes out of the same look, sign-extended by one arithmetic
// shift. A decode error is left in r.err, and ends the stream.
func (s *dodCodec) read(r *bitReader) int64 {
	hi, lo, n := r.hi, r.lo, r.n
	if n < 64 {
		hi, lo, n = r.fill(hi, n)
	}
	var dod int64
	var k uint
	switch class := uint(bits.LeadingZeros64(^hi)); {
	case class == 0:
		k = 1
	case class < 4:
		width := dodWidths[class]
		dod, k = int64(hi<<(class+1))>>(64-width), class+1+width
	default:
		hi, lo = shift(hi, lo, 4) // class 4 shows four real bits
		if n -= 4; n < 64 {
			hi, lo, n = r.fill(hi, n)
		}
		dod, k = int64(hi), 64
	}
	if k > n {
		r.fail(errExhausted)
		return 0
	}
	r.hi, r.lo = shift(hi, lo, k)
	r.n = n - k
	s.delta += dod
	s.prev += s.delta
	return s.prev
}

// read decodes one value, the same way: the control bits and a new
// window's header are read at once from the top of the window, and the
// meaningful bits, up to 64, in one piece.
func (s *xorCodec) read(r *bitReader) uint64 {
	hi, lo, n := r.hi, r.lo, r.n
	if n < 64 {
		hi, lo, n = r.fill(hi, n)
	}
	switch hi >> 62 {
	case 0, 1: // '0': unchanged
		if n < 1 {
			r.fail(errExhausted)
			return 0
		}
		r.hi, r.lo = shift(hi, lo, 1)
		r.n = n - 1
		return s.prev
	case 2: // '10': the previous window
		if n < 2 {
			r.fail(errExhausted)
			return 0
		}
		if !s.haveWin {
			r.fail(errReuseNoWindow)
			return 0
		}
		hi, lo = shift(hi, lo, 2)
		n -= 2
	default: // '11': a new window
		if n < 2+6+6 {
			r.fail(errExhausted)
			return 0
		}
		lead, sigm1 := uint(hi>>56)&(1<<6-1), uint(hi>>50)&(1<<6-1)
		if lead+sigm1+1 > 64 {
			r.fail(errCorruptWindow)
			return 0
		}
		s.leading, s.trailing, s.haveWin = uint8(lead), uint8(64-lead-sigm1-1), true
		hi, lo = shift(hi, lo, 2+6+6)
		n -= 2 + 6 + 6
	}
	k := 64 - uint(s.leading) - uint(s.trailing)
	if n < k {
		if hi, lo, n = r.fill(hi, n); n < k {
			r.fail(errExhausted)
			return 0
		}
	}
	s.prev ^= hi >> (64 - k) << s.trailing
	r.hi, r.lo = shift(hi, lo, k)
	r.n = n - k
	return s.prev
}

// Summary returns the chunk's running digest.
func (c *Chunk) Summary() Summary { return c.summary }

// Data returns the chunk's compressed bytes. The slice aliases the chunk's
// internal buffer; callers must copy it if they outlive the next Append.
// Of a chunk still being appended to, it stores the writer's pending bytes
// into the buffer's spare capacity, so it is for the chunk's writer, not its
// readers: those decode through Iter, which never writes.
func (c *Chunk) Data() []byte { return c.w.synced() }

// newSealedChunk reconstructs a chunk from a persisted summary and its
// compressed bytes. The result is read-only by convention: it is only ever
// placed in a series' sealed list, which is never appended to.
func newSealedChunk(sum Summary, data []byte) *Chunk {
	return &Chunk{w: bitWriter{buf: data}, summary: sum}
}

// Bytes returns the compressed size of the chunk in bytes.
func (c *Chunk) Bytes() int { return c.w.size() }

// Iter returns a decoder positioned before the first sample. The chunk
// must not be appended to while the iterator is in use (Series queries run
// under the lock that also guards appends); it takes the writer's pending
// word by value, so decoding never writes into the chunk.
func (c *Chunk) Iter() *ChunkIter {
	it := c.iter()
	return &it
}

// iter is Iter by value, for the loops in this package that must not
// allocate.
func (c *Chunk) iter() ChunkIter {
	return ChunkIter{r: c.w.reader(), total: c.summary.Count}
}

// ChunkIter decodes a chunk's points in append order.
type ChunkIter struct {
	r     bitReader
	total int
	count int
	t     dodCodec
	v     xorCodec
}

// Next returns the next point; ok is false once the chunk is exhausted or
// the stream is corrupt (see Err). The reader's error is sticky, so it is
// checked once, after the sample's two fields.
func (it *ChunkIter) Next() (Point, bool) {
	if it.count >= it.total || it.r.err != nil {
		return Point{}, false
	}
	var t int64
	var vb uint64
	if it.count == 0 {
		t = int64(it.r.read(64))
		vb = it.r.read(64)
		it.t, it.v = dodCodec{prev: t}, xorCodec{prev: vb}
	} else {
		t = it.t.read(&it.r)
		vb = it.v.read(&it.r)
	}
	if it.r.err != nil {
		return Point{}, false
	}
	it.count++
	return Point{T: t, V: math.Float64frombits(vb)}, true
}

// Err returns the first decode error, if any.
func (it *ChunkIter) Err() error { return it.r.err }
