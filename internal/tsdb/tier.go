package tsdb

import (
	"math"
	"unsafe"
)

// Bucket is one closed (or in-progress) downsample bucket covering
// [Start, Start+Interval).
type Bucket struct {
	Start         int64
	Count         int64
	First, Last   float64
	Min, Max      float64
	Sum           float64
	TFirst, TLast int64 // times of the first and the last sample
}

func newBucket(start, t int64, v float64) Bucket {
	return Bucket{Start: start, Count: 1, First: v, Last: v, Min: v, Max: v, Sum: v, TFirst: t, TLast: t}
}

func (b *Bucket) observe(t int64, v float64) {
	b.Count++
	b.Last, b.TLast = v, t
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
	b.Sum += v
}

// summary is the bucket as the Summary of its samples, which a tier query
// folds as a raw one folds chunk summaries.
func (b Bucket) summary() Summary {
	return Summary{Count: int(b.Count), TMin: b.TFirst, TMax: b.TLast,
		First: b.First, Last: b.Last, Min: b.Min, Max: b.Max, Sum: b.Sum}
}

// bucketsPerChunk is how many closed buckets a bucket chunk holds before
// the next one opens.
const bucketsPerChunk = 64

// bucketCols counts the columns of a bucket besides Start.
const bucketCols = 8

// columns returns the bucket's columns as the words the XOR codec stores:
// Count, the five values, and the two sample times as offsets from Start.
func (b *Bucket) columns() [bucketCols]uint64 {
	return [bucketCols]uint64{
		uint64(b.Count),
		math.Float64bits(b.First), math.Float64bits(b.Last),
		math.Float64bits(b.Min), math.Float64bits(b.Max), math.Float64bits(b.Sum),
		uint64(b.TFirst - b.Start), uint64(b.TLast - b.Start),
	}
}

func bucketOf(start int64, col *[bucketCols]uint64) Bucket {
	return Bucket{
		Start: start, Count: int64(col[0]),
		First: math.Float64frombits(col[1]), Last: math.Float64frombits(col[2]),
		Min: math.Float64frombits(col[3]), Max: math.Float64frombits(col[4]), Sum: math.Float64frombits(col[5]),
		TFirst: start + int64(col[6]), TLast: start + int64(col[7]),
	}
}

// bucketChunk holds up to bucketsPerChunk consecutive closed buckets of one
// tier, compressed the way a Chunk compresses samples: each bucket in turn
// is its Start through the delta-of-delta codec, then each of its columns
// through an XOR codec of its own (bucketCodec). In a tier fed at a steady
// period a bucket follows its predecessor and keeps its sample count and
// sample offsets, so only the five values cost more than a bit each. What
// a reader needs besides the bytes is the count and the first Start, from
// which the codecs' starting state follows; the newest Start lets eviction
// and queries skip the chunk without decoding it.
type bucketChunk struct {
	buf         []byte
	n           int   // buckets
	first, last int64 // Start of the oldest and of the newest bucket
}

// bucketCodec is the state of the codecs of one bucket chunk: the writer's
// for a tier's open chunk, a reader's for any chunk being decoded.
type bucketCodec struct {
	start dodCodec
	cols  [bucketCols]xorCodec
}

// newBucketCodec returns the codecs' state before a chunk's first bucket:
// the XOR codecs at zero, and Start's as though a bucket had preceded the
// first one by an interval, so a chunk's first bucket costs one bit of
// Start like every contiguous one after it.
func newBucketCodec(first, interval int64) bucketCodec {
	return bucketCodec{start: dodCodec{prev: first - interval, delta: interval}}
}

func (c *bucketCodec) write(w *bitWriter, b *Bucket) {
	c.start.write(w, b.Start)
	for i, v := range b.columns() {
		c.cols[i].write(w, v)
	}
}

// read decodes one bucket; a decode error is left in r.err.
func (c *bucketCodec) read(r *bitReader) Bucket {
	start := c.start.read(r)
	var col [bucketCols]uint64
	for i := range c.cols {
		col[i] = c.cols[i].read(r)
	}
	return bucketOf(start, &col)
}

// tierHead is a tier's hot half: its interval and the in-progress bucket,
// all an append reads and, inside a bucket, all it writes. It lives in the
// Series, beside the head chunk (Series.hot), and the tier reaches it
// through a pointer.
type tierHead struct {
	interval int64  // ns
	cur      Bucket // the in-progress bucket; Count 0 before the first sample
}

// add folds a sample into the in-progress bucket when it lies there, and
// reports whether it did. Appends strictly increase, so t > cur.Start and t
// lies in cur exactly when t−cur.Start < interval: no modulo on the common
// path. Taken unsigned, the difference cannot overflow.
func (h *tierHead) add(t int64, v float64) bool {
	if h.cur.Count == 0 || uint64(t-h.cur.Start) >= uint64(h.interval) {
		return false
	}
	h.cur.observe(t, v)
	return true
}

// tier maintains one downsampling resolution. Buckets close when an
// append crosses the bucket boundary — purely timestamp-driven, so tier
// contents are a deterministic function of the appended samples.
//
// Closed buckets are kept in bucket chunks, oldest first: the sealed ones,
// each bucketsPerChunk buckets, and the open one the next closed bucket is
// appended to, encoded by the tier's own writer w with the tier's encoder
// state enc. Each push syncs the writer's pending word into the open
// chunk's bytes, under the lock that guards appends, so a reader decodes the
// open chunk like any other. Sealing copies the open chunk's bytes out at
// their exact size, into the buffer of the last evicted chunk when that one
// fits, and starts the next chunk in the same buffer; so a sealed chunk
// keeps no codec state and no room to grow, and a tier in steady state
// closes buckets without allocating.
//
// Eviction is whole-chunk and runs when a bucket opens: a chunk goes once
// its newest bucket has expired, so the oldest retained chunk may begin
// with expired buckets, and reads skip those against now, the time of that
// last eviction. What a read sees is therefore exactly the closed buckets
// that were inside the retention window when the in-progress one opened.
type tier struct {
	*tierHead
	retention int64 // ns; 0 = unbounded

	sealed []*bucketChunk
	open   bucketChunk // its buf is w's stream
	w      bitWriter
	enc    bucketCodec
	spare  *bucketChunk // the last chunk evicted, recycled by the next seal
	now    int64        // time of the last evict
	// oldest is the newest Start of the oldest sealed chunk, when there is
	// one: an evict that drops nothing reads it, not the chunk.
	oldest int64
}

func bucketStart(t, interval int64) int64 {
	r := t % interval
	if r < 0 {
		r += interval
	}
	return t - r
}

func (tr *tier) observe(t int64, v float64) {
	if !tr.add(t, v) {
		tr.roll(t, v)
	}
}

// roll closes the in-progress bucket, which t lies past, and opens t's.
func (tr *tier) roll(t int64, v float64) {
	// Evict before the closing bucket goes in: a chunk whose newest bucket
	// expires with this one's arrival holds nothing a read would show.
	tr.evict(t)
	if tr.cur.Count > 0 && !tr.expired(tr.cur.Start, t) {
		tr.push(&tr.cur)
	}
	// At a steady period t opens the bucket after cur's: no modulo then.
	start := tr.cur.Start + tr.interval
	if tr.cur.Count == 0 || uint64(t-start) >= uint64(tr.interval) {
		start = bucketStart(t, tr.interval)
	}
	tr.cur = newBucket(start, t, v)
}

// expired reports whether a closed bucket starting at start lies wholly
// outside the retention window ending at now.
func (tr *tier) expired(start, now int64) bool {
	return tr.retention > 0 && start+tr.interval <= now-tr.retention
}

// evict records now and drops the chunks whose newest bucket has expired
// by it — O(chunks dropped), and the survivors are a handful of pointers.
func (tr *tier) evict(now int64) {
	tr.now = now
	if len(tr.sealed) > 0 && tr.expired(tr.oldest, now) {
		i := 1
		for i < len(tr.sealed) && tr.expired(tr.sealed[i].last, now) {
			i++
		}
		tr.spare = tr.sealed[i-1]
		n := copy(tr.sealed, tr.sealed[i:])
		clear(tr.sealed[n:])
		tr.sealed = tr.sealed[:n]
		if n > 0 {
			tr.oldest = tr.sealed[0].last
		}
	}
	if tr.open.n > 0 && tr.expired(tr.open.last, now) {
		tr.open = bucketChunk{}
		tr.w = bitWriter{buf: tr.w.buf[:0]}
	}
}

// push appends a closed bucket to the open chunk, sealing the chunk first
// if it is full.
func (tr *tier) push(b *Bucket) {
	if tr.open.n == bucketsPerChunk {
		tr.seal()
	}
	if tr.open.n == 0 {
		tr.open.first = b.Start
		tr.enc = newBucketCodec(b.Start, tr.interval)
	}
	tr.enc.write(&tr.w, b)
	tr.open.buf = tr.w.synced()
	tr.open.n++
	tr.open.last = b.Start
}

// seal moves the open chunk behind the sealed ones at its exact size —
// into the spare chunk's buffer when that holds it with at most 1/8 to
// spare, else into a new one — and empties the open chunk, keeping its
// buffer for the next.
func (tr *tier) seal() {
	c := tr.spare
	tr.spare = nil
	if c == nil {
		c = new(bucketChunk)
	}
	data := tr.open.buf
	buf := c.buf[:0]
	if n := len(data); cap(buf) < n || cap(buf)-n > cap(buf)/8 {
		buf = nil
	}
	*c = tr.open
	c.buf = append(buf, data...)
	if tr.sealed = append(tr.sealed, c); len(tr.sealed) == 1 {
		tr.oldest = c.last
	}
	tr.open = bucketChunk{}
	// The next chunk compresses to about the same size. An encode buffer
	// more than 1/4 larger than that (append doubling grew it, or the data
	// shrank) is replaced by one 1/8 larger; the 8 spare bytes are the
	// bitWriter's last word store, at a sync.
	if n := len(data); cap(data) > n+n/4+8 {
		data = make([]byte, 0, n+n/8+8)
	}
	tr.w = bitWriter{buf: data[:0]}
}

// each calls fn for every bucket with from <= Start < to, oldest first:
// the closed buckets a read sees, then the in-progress one. Chunks wholly
// outside the window are not decoded.
func (tr *tier) each(from, to int64, fn func(Bucket)) {
	for _, c := range tr.sealed {
		tr.decode(c, from, to, fn)
	}
	tr.decode(&tr.open, from, to, fn)
	if tr.cur.Count > 0 && tr.cur.Start >= from && tr.cur.Start < to {
		fn(tr.cur)
	}
}

// all returns every bucket a read sees, oldest first.
func (tr *tier) all() []Bucket {
	out := []Bucket{}
	tr.each(math.MinInt64, math.MaxInt64, func(b Bucket) { out = append(out, b) })
	return out
}

func (tr *tier) decode(c *bucketChunk, from, to int64, fn func(Bucket)) {
	if c.n == 0 || c.last < from || c.first >= to {
		return
	}
	r := newBitReader(c.buf)
	dec := newBucketCodec(c.first, tr.interval)
	for i := 0; i < c.n; i++ {
		b := dec.read(&r)
		if r.err != nil || b.Start >= to {
			return // an error cannot happen: the tier wrote these bytes
		}
		if b.Start >= from && !tr.expired(b.Start, tr.now) {
			fn(b)
		}
	}
}

// footprint returns how many closed buckets the tier holds, an expired head
// of the oldest chunk included, and the bytes holding them and the tier:
// buffers at capacity, chunk headers, codec state and the spare chunk.
func (tr *tier) footprint() (buckets, bytes int) {
	const chunkSize = int(unsafe.Sizeof(bucketChunk{}))
	buckets = tr.open.n
	bytes = int(unsafe.Sizeof(*tr)+unsafe.Sizeof(*tr.tierHead)) + cap(tr.w.buf) + cap(tr.sealed)*int(unsafe.Sizeof(tr.spare))
	for _, c := range tr.sealed {
		buckets += c.n
		bytes += chunkSize + cap(c.buf)
	}
	if tr.spare != nil {
		bytes += chunkSize + cap(tr.spare.buf)
	}
	return buckets, bytes
}
