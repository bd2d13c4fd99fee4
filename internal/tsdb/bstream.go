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
type bitReader struct {
	buf  []byte
	idx  int
	used uint // bits already consumed from buf[idx]
}

func newBitReader(buf []byte) bitReader { return bitReader{buf: buf} }

// readBit returns the next bit. It inlines: a bit is a shift of the
// current byte.
func (r *bitReader) readBit() (uint64, error) {
	if r.idx >= len(r.buf) {
		return 0, errExhausted
	}
	bit := uint64(r.buf[r.idx]>>(7-r.used)) & 1
	r.used++
	r.idx += int(r.used >> 3)
	r.used &= 7
	return bit, nil
}

var errExhausted = errors.New("tsdb: bitstream exhausted")

// readBits returns the next n bits (n <= 64) as the low-order bits of a
// uint64. While 8 bytes remain and the bits lie within them, that is one
// word load; the last 8 bytes of a stream, and the rare read that spans 9,
// take the bit-at-a-time loop, which is also what reports a stream cut
// short.
func (r *bitReader) readBits(n uint) (uint64, error) {
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
