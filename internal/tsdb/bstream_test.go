package tsdb

import (
	"bytes"
	"math/rand"
	"testing"
)

// refWriteBits is the bit-at-a-time writer bitWriter replaced, kept as the
// reference the word-at-a-time one must match byte for byte.
func refWriteBits(w *bitWriter, v uint64, n uint) {
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := min(w.free, n)
		chunk := byte(v >> (n - take) & (1<<take - 1))
		w.buf[len(w.buf)-1] |= chunk << (w.free - take)
		w.free -= take
		n -= take
	}
}

type bitField struct {
	v uint64
	n uint
}

// randomFields is a seeded sequence of (value, width) pairs, widths 0..64
// and values with bits set above their width, which a write must ignore.
func randomFields(rng *rand.Rand, count int) []bitField {
	out := make([]bitField, count)
	for i := range out {
		out[i] = bitField{v: rng.Uint64(), n: uint(rng.Intn(65))}
	}
	return out
}

func masked(f bitField) uint64 {
	if f.n == 64 {
		return f.v
	}
	return f.v & (1<<f.n - 1)
}

// TestBitWriterMatchesBitLoop: from every starting bit offset, any sequence
// of writes produces the reference loop's bytes — into a fresh buffer and
// into one whose spare capacity holds garbage — and reads back field by
// field, the reads near the end inside the last 8 bytes included.
func TestBitWriterMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	for trial := 0; trial < 400; trial++ {
		lead := uint(trial % 8)
		fields := append([]bitField{{v: rng.Uint64(), n: lead}}, randomFields(rng, 1+rng.Intn(40))...)
		var ref bitWriter
		dirty := bytes.Repeat([]byte{0xa5}, 64*len(fields))
		got := []*bitWriter{{}, {buf: dirty[:0]}}
		for _, f := range fields {
			refWriteBits(&ref, f.v, f.n)
			for _, w := range got {
				w.writeBits(f.v, f.n)
			}
		}
		for k, w := range got {
			if !bytes.Equal(w.bytes(), ref.bytes()) || w.free != ref.free {
				t.Fatalf("trial %d writer %d: %x (free %d), reference %x (free %d)", trial, k, w.bytes(), w.free, ref.bytes(), ref.free)
			}
		}
		r := newBitReader(ref.bytes())
		for i, f := range fields {
			v, err := r.readBits(f.n)
			if err != nil || v != masked(f) {
				t.Fatalf("trial %d field %d (%d bits): read %x, %v; wrote %x", trial, i, f.n, v, err, masked(f))
			}
		}
	}
}

// TestBitReaderTruncatedStream: a stream cut anywhere short of its end
// yields the fields wholly before the cut, then an error — never a panic,
// never a field made up from bits that are not there.
func TestBitReaderTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		fields := randomFields(rng, 30)
		var w bitWriter
		var ends []int // bit offset where each field ends
		bitsSoFar := 0
		for _, f := range fields {
			w.writeBits(f.v, f.n)
			bitsSoFar += int(f.n)
			ends = append(ends, bitsSoFar)
		}
		full := w.bytes()
		for cut := 0; cut < len(full); cut++ {
			r := newBitReader(full[:cut])
			for i, f := range fields {
				v, err := r.readBits(f.n)
				if fits := ends[i] <= 8*cut; fits != (err == nil) {
					t.Fatalf("trial %d cut %d field %d ending at bit %d: err %v", trial, cut, i, ends[i], err)
				}
				if err != nil {
					break
				}
				if v != masked(f) {
					t.Fatalf("trial %d cut %d field %d: read %x, wrote %x", trial, cut, i, v, masked(f))
				}
			}
		}
	}
}

// TestChunkIterTruncatedData: a chunk whose bytes are cut short decodes a
// prefix of its samples, then reports an error.
func TestChunkIterTruncatedData(t *testing.T) {
	c := mixChunk(3, 256)
	want := decodeAll(t, c)
	data := c.Data()
	for cut := 0; cut < len(data); cut++ {
		it := newSealedChunk(c.Summary(), data[:cut]).Iter()
		n := 0
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if !samePoint(p, want[n]) {
				t.Fatalf("cut %d: point %d = %+v, want %+v", cut, n, p, want[n])
			}
			n++
		}
		if it.Err() == nil || n == len(want) {
			t.Fatalf("cut %d of %d bytes: %d points, err %v", cut, len(data), n, it.Err())
		}
	}
}
