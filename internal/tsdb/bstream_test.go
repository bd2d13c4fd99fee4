package tsdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refWriteBits is the bit-at-a-time writer the word-at-a-time ones replaced,
// kept as the reference they must match byte for byte. It writes through
// refBitWriter's fields (oracle_test.go).
func refWriteBits(w *refBitWriter, v uint64, n uint) {
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
// of writes produces the reference loop's bytes and bit count — into a fresh
// buffer and into one whose spare capacity holds garbage — and reads back
// field by field, from the bytes and, as a head chunk is read, from the
// writer with its pending word, the reads near the end inside the last 8
// bytes included.
func TestBitWriterMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	for trial := 0; trial < 400; trial++ {
		lead := uint(trial % 8)
		fields := append([]bitField{{v: rng.Uint64(), n: lead}}, randomFields(rng, 1+rng.Intn(40))...)
		var ref refBitWriter
		dirty := bytes.Repeat([]byte{0xa5}, 64*len(fields))
		got := []*bitWriter{{}, {buf: dirty[:0]}}
		for _, f := range fields {
			refWriteBits(&ref, f.v, f.n)
			for _, w := range got {
				w.writeBits(f.v, f.n)
			}
		}
		refBits := 8*uint(len(ref.buf)) - ref.free
		for k, w := range got {
			if bits := 8*uint(len(w.buf)) + w.n; !bytes.Equal(w.stream(), ref.bytes()) || bits != refBits {
				t.Fatalf("trial %d writer %d: %x (%d bits), reference %x (%d bits)", trial, k, w.stream(), bits, ref.bytes(), refBits)
			}
		}
		for k, r := range []bitReader{newBitReader(ref.bytes()), got[0].reader(), got[1].reader()} {
			for i, f := range fields {
				v, err := r.readBits(f.n)
				if err != nil || v != masked(f) {
					t.Fatalf("trial %d reader %d field %d (%d bits): read %x, %v; wrote %x", trial, k, i, f.n, v, err, masked(f))
				}
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
		full := w.stream()
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

// FuzzBitWriterParity holds bitWriter to refBitWriter, the writer it
// replaced (oracle_test.go), and the series read paths to the samples a head
// chunk was given. The input is read twice.
//
// As writes — an op byte: below 65 a write of that width with the next 8
// bytes as its value, high bits set above the width included; below 130 a
// writeZero; else a read — the stream, buf and the pending word, is the
// oracle's, bit count included, at every read and at the end; a read decodes
// every field so far through the head reader and leaves the writer as it
// found it; and flush leaves buf the oracle's bytes exactly.
//
// As samples (fuzzPoints), appended one by one to a memory-only DB, whose
// head is read at the first 32 samples the input marks and at the end, then sealed
// and read again: ChunkIter, Tail, Series.appendValues and Series.Query give the
// samples back, bit for bit, and the sealed chunk's bytes are the head's
// stream.
func FuzzBitWriterParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 200, 3, 0xff, 0, 0, 0, 0, 0, 0, 0, 70, 70, 200})
	rng := rand.New(rand.NewSource(20030623))
	for _, n := range []int{8, 64, 512} {
		buf := make([]byte, n)
		rng.Read(buf)
		f.Add(buf)
	}
	for _, c := range []byte{0x80, 0x85, 0x8a, 0x8f, 0x00, 0x04} {
		f.Add(bytes.Repeat([]byte{c, 0x3c, 0x7f, 1, 2, 3, 4, 5, 6, 7}, 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 4096)] // the checks are quadratic in it
		checkWriterParity(t, data)
		checkSeriesReads(t, data)
	})
}

// checkWriterParity runs data as writes through bitWriter and refBitWriter.
func checkWriterParity(t *testing.T, data []byte) {
	var w bitWriter
	var ref refBitWriter
	var fields []bitField
	check := func() {
		t.Helper()
		bits := 8*uint(len(w.buf)) + w.n
		if got := w.stream(); !bytes.Equal(got, ref.bytes()) || bits != 8*uint(len(ref.buf))-ref.free {
			t.Fatalf("after %d writes: stream %x (%d bits), oracle %x (%d bits)", len(fields), got, bits, ref.bytes(), 8*uint(len(ref.buf))-ref.free)
		}
		before := w.stream()
		r := w.reader()
		for i, f := range fields {
			if v, err := r.readBits(f.n); err != nil || v != masked(f) {
				t.Fatalf("field %d of %d (%d bits): read %x, %v; wrote %x", i, len(fields), f.n, v, err, masked(f))
			}
		}
		if !bytes.Equal(w.stream(), before) || 8*uint(len(w.buf))+w.n != bits {
			t.Fatalf("after %d writes: reading the head changed the writer", len(fields))
		}
	}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch {
		case op < 65:
			var word [8]byte
			data = data[copy(word[:], data):]
			f := bitField{v: binary.LittleEndian.Uint64(word[:]), n: uint(op)}
			w.writeBits(f.v, f.n)
			ref.writeBits(f.v, f.n)
			fields = append(fields, f)
		case op < 130:
			w.writeZero()
			ref.writeZero()
			fields = append(fields, bitField{n: 1})
		default:
			check()
		}
	}
	check()
	if w.flush(); w.n != 0 || !bytes.Equal(w.buf, ref.bytes()) {
		t.Fatalf("flushed: %x (%d pending bits), oracle %x", w.buf, w.n, ref.bytes())
	}
}

// fuzzPoints reads data as samples and the samples after which to read the
// head. Each sample takes a control byte — its low two bits pick the class
// of its timestamp's delta-of-delta, the next two how its value changes,
// the top bit a read — and the value's bytes, so every codec class shows.
func fuzzPoints(data []byte) (pts []Point, reads []bool) {
	ts, delta := int64(1), int64(1e9)
	var vb uint64
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		switch c & 3 {
		case 1:
			delta += int64(int8(c)) // a '10' dod
		case 2:
			delta += int64(int8(c)) << 20 // '110'
		case 3:
			delta += int64(int8(c)) << 33 // '1110' or '1111'
		}
		delta = min(max(delta, 1), 1<<40)
		ts += delta
		var word [8]byte
		switch c >> 2 & 3 {
		case 1: // one byte flips: a window reused, or a narrower one
			data = data[copy(word[:1], data):]
			vb ^= uint64(word[0]) << (c >> 4 & 7 * 8)
		case 2: // a small integer
			data = data[copy(word[:2], data):]
			vb = math.Float64bits(float64(binary.LittleEndian.Uint16(word[:])))
		case 3: // any bits, NaNs and infinities included
			data = data[copy(word[:], data):]
			vb = binary.LittleEndian.Uint64(word[:])
		}
		pts = append(pts, Point{T: ts, V: math.Float64frombits(vb)})
		reads = append(reads, c&0x80 != 0)
	}
	return pts, reads
}

// checkSeriesReads appends data's samples to a series that never seals on
// its own, reads them back through every read path from the head, seals
// the head and reads them back from the sealed chunk.
func checkSeriesReads(t *testing.T, data []byte) {
	pts, reads := fuzzPoints(data)
	if len(pts) == 0 {
		return
	}
	const name = "fuzz"
	db := NewDB(Options{ChunkSize: len(pts) + 1})
	checked := 0
	for i, p := range pts {
		if !db.Append(name, p.T, p.V) {
			t.Fatalf("sample %d (%+v) rejected", i, p)
		}
		if reads[i] && checked < 32 {
			checkReads(t, db, name, pts[:i+1], "head")
			checked++
		}
	}
	checkReads(t, db, name, pts, "head")
	s := db.series[name]
	head := s.head.w.stream()
	s.sealHead()
	if len(s.sealed) != 1 || !bytes.Equal(s.sealed[0].Data(), head) {
		t.Fatalf("sealed chunk holds %x, the head's stream was %x", s.sealed[0].Data(), head)
	}
	checkReads(t, db, name, pts, "sealed")
}

// checkReads reads the series back through ChunkIter (its newest chunk, the
// only one), Tail, appendValues and Series.Query over the whole range and
// over its middle third, whose chunk is decoded, not folded from its
// summary.
func checkReads(t *testing.T, db *DB, name string, want []Point, kind string) {
	t.Helper()
	s := db.series[name]
	samePoints := func(path string, got []Point) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s, %d samples: %s gives %d", kind, len(want), path, len(got))
		}
		for i := range got {
			if !samePoint(got[i], want[i]) {
				t.Fatalf("%s, %d samples: %s gives sample %d as %+v, want %+v", kind, len(want), path, i, got[i], want[i])
			}
		}
	}
	it := s.chunk(s.nchunks() - 1).Iter()
	var got []Point
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		got = append(got, p)
	}
	if it.Err() != nil {
		t.Fatalf("%s: ChunkIter: %v", kind, it.Err())
	}
	samePoints("ChunkIter", got)
	samePoints("Tail", db.Tail(name, len(want)))
	vals, err := s.appendValues(nil, want[0].T, want[len(want)-1].T+1)
	if err != nil {
		t.Fatalf("%s: appendValues: %v", kind, err)
	}
	if len(vals) != len(want) {
		t.Fatalf("%s, %d samples: appendValues gives %d", kind, len(want), len(vals))
	}
	for i, v := range vals {
		if math.Float64bits(v) != math.Float64bits(want[i].V) {
			t.Fatalf("%s, %d samples: appendValues gives value %d as %v, want %v", kind, len(want), i, v, want[i].V)
		}
	}
	for _, win := range [][2]int{{0, len(want)}, {len(want) / 3, max(2*len(want)/3, len(want)/3+1)}} {
		in := want[win[0]:win[1]]
		var sum Summary
		vals := make([]float64, 0, len(in))
		for _, p := range in {
			sum.observe(p.T, p.V)
			vals = append(vals, p.V)
		}
		sort.Float64s(vals)
		for _, c := range []struct {
			agg  Agg
			want float64
		}{
			{AggMin, sum.Min}, {AggMax, sum.Max}, {AggSum, sum.Sum}, {AggCount, float64(sum.Count)},
			{AggAvg, sum.Sum / float64(sum.Count)}, {AggP50, BucketBound(vals[int(math.Ceil(0.5*float64(len(vals))))-1])},
		} {
			r, err := db.Query(name, Query{Agg: c.agg, From: in[0].T, To: in[len(in)-1].T + 1})
			// An aggregate is the same float, or NaN on both sides: which
			// NaN operand's payload a sum carries is the compiler's choice.
			if same := r.Value == c.want || r.Value != r.Value && c.want != c.want; err != nil || r.Count != int64(len(in)) || !same {
				t.Fatalf("%s, samples [%d, %d) of %d: %s = %v over %d samples, %v; want %v", kind, win[0], win[1], len(want), c.agg, r.Value, r.Count, err, c.want)
			}
		}
	}
}
