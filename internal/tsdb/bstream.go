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

// bitWriter appends bits to a byte buffer, most-significant bit first.
//
// It works a word at a time: a write stores the bits as one big-endian
// 64-bit word past the end of buf and keeps only the bytes it used. Two
// invariants make that produce the same bytes as a bit-at-a-time loop:
// the unused low bits of the final byte are always zero, because the next
// write ORs into them; and buf's capacity past its length is scratch
// (callers sizing a buffer leave 8 spare bytes so the word store does not
// grow it).
type bitWriter struct {
	buf  []byte
	free uint // unused low-order bits in the final byte
}

// writeZero appends one 0 bit — the one-bit code of an unchanged field, the
// commonest write there is. It inlines, and within the last byte it only
// counts the bit: the unused bits there are already zero.
func (w *bitWriter) writeZero() {
	if w.free > 0 {
		w.free--
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
func (w *bitWriter) bytes() []byte { return w.buf }

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
// of the window near the end sees zeros there.
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
	if r.idx+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[r.idx : r.idx+8])
	} else {
		var tail [8]byte
		k = copy(tail[:], r.buf[r.idx:])
		w = binary.BigEndian.Uint64(tail[:])
	}
	r.idx += k
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
