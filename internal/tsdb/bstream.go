// Package tsdb is the compressed time-series history store behind the
// dproc monitoring paths. It retains per-series sample history far beyond
// the original 64-entry ring at a fraction of the raw memory cost:
// timestamps are delta-of-delta encoded and values XOR encoded in the
// style of Facebook's Gorilla, samples are packed into fixed-size sealed
// chunks behind one mutable head chunk, each sealed chunk carries a
// pre-computed summary so windowed aggregate queries skip decompression
// for fully-covered chunks, and multi-resolution downsampling tiers
// (raw → 10s → 60s by default) answer coarse queries over long ranges.
//
// The subsystem never reads a wall clock: retention, eviction and
// downsampling are driven entirely by the timestamps of appended samples,
// so every behavior is deterministic under internal/clock's virtual time.
package tsdb

import (
	"encoding/binary"
	"errors"
)

// bitWriter appends bits to a byte stream, most-significant bit first.
//
// It works a word at a time: the stream is buf, which holds whole 64-bit
// words only, followed by the n bits pending in cur, left-aligned with zeros
// after them. A write ORs its bits into cur and, when cur fills, appends it
// to buf as one big-endian word, so buf is touched once per 64 bits written,
// not once per write. The stream's bytes are buf and the first (n+7)/8 bytes
// of cur, a bit-at-a-time loop's bytes: the unused low bits of the final
// byte are zero.
//
// A reader takes the pending word by value (reader), so it never writes
// into the writer; flush ends the stream, appending cur's bytes to buf, and
// synced stores them past buf's length without ending it.
type bitWriter struct {
	buf []byte
	cur uint64 // pending bits, left-aligned
	n   uint   // bits pending in cur, < 64
}

// writeZero appends one 0 bit — the one-bit code of an unchanged field, the
// commonest write there is. It inlines, and short of a full word it only
// counts the bit: the bits after the pending ones are already zero.
func (w *bitWriter) writeZero() {
	if w.n < 63 {
		w.n++
		return
	}
	w.writeBits(0, 1)
}

// writeBits appends the n low-order bits of v (n <= 64), most-significant
// first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	v <<= 64 - n // left-aligned: the n bits lead, zeros follow
	w.cur |= v >> w.n
	if w.n += n; w.n < 64 {
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)
	w.n -= 64
	w.cur = v << (n - w.n) // the bits that did not fit; n == w.n: a shift by 64 is 0
}

// tailBytes is how many bytes of cur belong to the stream.
func (w *bitWriter) tailBytes() int { return int(w.n+7) / 8 }

// size returns the length of the stream in bytes.
func (w *bitWriter) size() int { return len(w.buf) + w.tailBytes() }

// flush ends the stream: cur's bytes are appended to buf, which then holds
// the exact stream. Nothing may be written after it.
func (w *bitWriter) flush() {
	w.buf = w.synced()
	w.cur, w.n = 0, 0
}

// synced returns the whole stream as one slice: buf, with cur's bytes
// stored into its spare capacity (grown when it has fewer than 8 bytes to
// spare). The writer's state is unchanged — writing on stores the same
// bytes there — so the slice stays valid until the next write.
func (w *bitWriter) synced() []byte {
	if w.n == 0 {
		return w.buf
	}
	k := len(w.buf)
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.cur)[:k]
	return w.buf[:k+w.tailBytes()]
}

// reader returns a bitReader over the stream, taking the pending word by
// value: reading never writes into the writer.
func (w *bitWriter) reader() bitReader {
	return bitReader{buf: w.buf, tail: w.cur, tailLen: w.tailBytes()}
}

// bitReader consumes bits from a buffer written by bitWriter.
//
// It reads through a 128-bit window, hi then lo: the next n bits of the
// stream, most-significant first, and zeros after them. A field is taken
// from the top of hi and the window shifted left across both words, so a
// field of up to 64 bits — a first sample's raw words, a '1111' timestamp,
// the widest XOR block — never splits: a window holding fewer bits than the
// field is first refilled with the next 8 bytes of the buffer, one
// big-endian word load placed behind the n < 64 bits it holds, which leaves
// at least 64. The last bytes of a buffer are loaded through a zero-padded
// word, so the window never holds a bit past the end and a look at the top
// of the window near the end sees zeros there. A head chunk's stream ends in
// its writer's pending word: buf is then whole words, and the pending word,
// taken by value, is the short word loaded after them.
//
// Errors are sticky: the first read past the end (or a decoder finding a
// corrupt field) sets err, which ends the stream; a caller checks err once
// per sample.
type bitReader struct {
	buf    []byte
	idx    int    // next byte of buf to load
	hi, lo uint64 // the window
	n      uint   // bits in the window
	err    error
	// The stream's last tailLen bytes, after buf, left-aligned: a head
	// chunk's pending word.
	tail    uint64
	tailLen int
}

func newBitReader(buf []byte) bitReader { return bitReader{buf: buf} }

var errExhausted = errors.New("tsdb: bitstream exhausted")

// fill returns a window of n < 64 bits, hi (lo is empty), with the next
// word of the buffer loaded behind them: at least 64 bits, or all that is
// left. It takes and returns the window by value so that a decoder can keep
// it in registers.
func (r *bitReader) fill(hi uint64, n uint) (uint64, uint64, uint) {
	var w uint64
	k := 8
	switch {
	case r.idx+8 <= len(r.buf):
		w = binary.BigEndian.Uint64(r.buf[r.idx : r.idx+8])
		r.idx += 8
	case r.idx < len(r.buf):
		var tail [8]byte
		k = copy(tail[:], r.buf[r.idx:])
		w = binary.BigEndian.Uint64(tail[:])
		r.idx += k
	default: // past buf: the tail word once, then nothing
		w, k = r.tail, r.tailLen
		r.tail, r.tailLen = 0, 0
	}
	return hi | w>>n, w << (64 - n), n + uint(k)*8 // n == 0: a shift by 64 is 0
}

// shift drops the first k <= 64 bits of the window hi:lo.
func shift(hi, lo uint64, k uint) (uint64, uint64) {
	return hi<<k | lo>>(64-k), lo << k
}

// read consumes the next k bits (k <= 64) and returns them as the low-order
// bits of a uint64; 0, with errExhausted, when they are not all there.
func (r *bitReader) read(k uint) uint64 {
	if r.n < k {
		if r.hi, r.lo, r.n = r.fill(r.hi, r.n); r.n < k {
			r.fail(errExhausted)
			return 0
		}
	}
	v := r.hi >> (64 - k) // k == 0: 0
	r.hi, r.lo = shift(r.hi, r.lo, k)
	r.n -= k
	return v
}

// fail records the first error.
func (r *bitReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
