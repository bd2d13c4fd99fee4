// Package wire implements the compact binary framing and field codec used by
// the KECho event channels and the channel registry. The paper's kernel
// modules exchange fixed binary records over kernel sockets; this codec plays
// the same role for the user-space reproduction: length-prefixed frames with
// a one-byte message type, and a sticky-error field encoder/decoder so call
// sites stay free of per-field error plumbing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// Protocol constants.
const (
	// Magic marks the start of every frame; it guards against desync and
	// cross-protocol connections.
	Magic uint16 = 0xDC03 // "dproc 2003"
	// Version is the wire protocol version.
	Version uint8 = 1
	// HeaderSize is the fixed frame header size in bytes:
	// magic(2) + version(1) + type(1) + length(4).
	HeaderSize = 8
	// MaxFrameSize bounds a frame payload (16 MiB) so a corrupt length field
	// cannot drive an unbounded allocation. SmartPointer frames (3 MB) fit
	// with ample headroom.
	MaxFrameSize = 16 << 20
)

// Errors returned by frame and field decoding.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrFrameSize  = errors.New("wire: frame exceeds maximum size")
	ErrShortField = errors.New("wire: field extends past end of payload")
	ErrTrailing   = errors.New("wire: trailing bytes after last field")
)

// maxPooledBuf caps the capacity of scratch buffers retained by the package
// pools. A frame may legally approach MaxFrameSize (16 MiB); keeping such a
// buffer alive in a pool would pin it forever, so oversized scratch is
// dropped after use and reallocated on the rare frames that need it.
const maxPooledBuf = 64 << 10

// frameScratch is the per-write scratch WriteFrame draws from a pool: the
// buffer a frame's header and payload are copied into.
type frameScratch struct {
	buf []byte
}

var frameScratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

func (s *frameScratch) release() {
	if cap(s.buf) > maxPooledBuf {
		s.buf = nil
	}
	frameScratchPool.Put(s)
}

// putHeader fills hdr (HeaderSize bytes) with the header of a frame of type
// msgType carrying n payload bytes.
func putHeader(hdr []byte, msgType uint8, n int) {
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = msgType
	binary.BigEndian.PutUint32(hdr[4:8], uint32(n))
}

// WriteFrame writes one frame (header + payload) to w: both are copied
// into a pooled scratch buffer and written with one Write call, so the frame
// leaves whole and steady-state writes allocate nothing. Its callers write
// control frames — hellos, registry requests and replies — far below
// gatherMin, where BenchmarkBatchWrite shows a copy beating a gathered
// write; event records go out through a BatchWriter.
func WriteFrame(w io.Writer, msgType uint8, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameSize
	}
	s := frameScratchPool.Get().(*frameScratch)
	defer s.release()
	var hdr [HeaderSize]byte
	putHeader(hdr[:], msgType, len(payload))
	s.buf = append(append(s.buf[:0], hdr[:]...), payload...)
	_, err := w.Write(s.buf)
	return err
}

// gatherMin is the smallest record a BatchWriter sends from the caller's
// buffer instead of copying it into its own. BenchmarkBatchWrite (DESIGN §8)
// puts the crossover between 1 and 2 KiB: at 1 KiB the two more iovecs a
// gathered record costs the kernel outweigh the copy it saves, at 1.5 and
// 2 KiB the two are within their runs' spread, and from 3 KiB gathering wins
// by a gap that widens with the record. A constant rather than a setting: it
// depends on the syscall, not on the deployment.
const gatherMin = 2 << 10

// BatchWriter writes batch frames: the bytes WriteFrame(w, msgType,
// AppendBatch(nil, records)) writes, without first copying every record into
// one contiguous payload. On a *net.TCPConn the frame goes out as one
// gathered write (writev): the header, the count, every length prefix and
// every record shorter than gatherMin are copied into the writer's buffer,
// and each longer record is sent from its own memory. Any other writer gets
// the whole frame copied into that buffer and written with one Write, as
// WriteFrame does. Either way the frame is one write call, so a connection
// written by one writer at a time keeps its frames whole.
//
// The zero value is ready to use. A BatchWriter is one writer's scratch: not
// safe for concurrent use, and it keeps no reference to records after
// WriteFrame returns.
type BatchWriter struct {
	// buf holds the header, count, prefixes and short records of the frame
	// being written (the whole frame on the copying path). On the gathering
	// path it never exceeds HeaderSize + 4 + n·(4 + gatherMin − 1) bytes for
	// n records — 128 KiB at kecho's default 64-record batches — so it is
	// kept; the copying path drops it above maxPooledBuf, as the package
	// pools do, since there one frame may approach MaxFrameSize.
	buf []byte
	// vec is the backing array of the gathered write's segments; bufs is
	// the net.Buffers handed to WriteTo, which consumes it. A field, not a
	// local, so passing it to the connection does not allocate.
	vec  [][]byte
	bufs net.Buffers
}

// WriteFrame writes records as one batch frame of type msgType to w. A frame
// over MaxFrameSize is refused with ErrFrameSize before anything is written.
func (bw *BatchWriter) WriteFrame(w io.Writer, msgType uint8, records [][]byte) error {
	return bw.writeFrame(w, msgType, records, gatherMin)
}

// writeFrame is WriteFrame with the gather threshold as a parameter, so
// BenchmarkBatchWrite can time copying and gathering on the same code path.
func (bw *BatchWriter) writeFrame(w io.Writer, msgType uint8, records [][]byte, minGather int) error {
	size, inline := 4, HeaderSize+4
	for _, r := range records {
		size += 4 + len(r)
		inline += 4
		if len(r) < minGather {
			inline += len(r)
		}
	}
	if size > MaxFrameSize {
		return ErrFrameSize
	}
	tc, gather := w.(*net.TCPConn)
	if !gather {
		inline = HeaderSize + size
	}
	// Sized once, before filling, so no append below moves it: the segments
	// are views into the one buffer the next frame reuses, and a batch of
	// large records never regrows it.
	if cap(bw.buf) < inline {
		bw.buf = make([]byte, 0, inline)
	}
	b := bw.buf[:HeaderSize]
	putHeader(b, msgType, size)
	if !gather {
		b = AppendBatch(b, records)
		_, err := w.Write(b)
		if cap(bw.buf) > maxPooledBuf {
			bw.buf = nil
		}
		return err
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(records)))
	vec, start := bw.vec[:0], 0
	for _, r := range records {
		b = binary.BigEndian.AppendUint32(b, uint32(len(r)))
		if len(r) < minGather {
			b = append(b, r...)
			continue
		}
		vec = append(vec, b[start:], r)
		start = len(b)
	}
	if len(vec) == 0 {
		_, err := tc.Write(b)
		return err
	}
	if start < len(b) {
		vec = append(vec, b[start:])
	}
	// WriteTo loops over short writes, resuming mid-segment; it consumes
	// bufs as it goes, so vec keeps the array for the next frame.
	bw.bufs = vec
	_, err := bw.bufs.WriteTo(tc)
	clear(vec) // a released record must not stay reachable from here
	bw.vec, bw.bufs = vec[:0], nil
	return err
}

// parseHeader validates a frame header (HeaderSize bytes) and returns the
// frame's type and payload length; the length is checked against
// MaxFrameSize before any caller sizes a buffer by it.
func parseHeader(hdr []byte) (msgType uint8, n int, err error) {
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[2], Version)
	}
	n32 := binary.BigEndian.Uint32(hdr[4:HeaderSize])
	if n32 > MaxFrameSize {
		return 0, 0, ErrFrameSize
	}
	return hdr[3], int(n32), nil
}

// shortPayload is the error of a stream that failed after a frame's header:
// the end of the stream there is unexpected, whether or not a payload byte
// arrived.
func shortPayload(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("wire: short frame payload: %w", err)
}

// readSlack is how far past the frame it is completing a FrameReader reads:
// a wake-up takes in every small frame already waiting, up to this many
// bytes more, in one read(2). A frame whose payload is larger is completed
// by reading exactly its remainder, so large frames are never copied. A
// constant rather than a setting: it trades a syscall against a copy, both
// properties of the machine, not of the deployment.
const readSlack = 4 << 10

// FrameReader reads length-prefixed frames from one connection into a
// single receive buffer reused across frames, so the steady-state receive
// path does not allocate. One read takes in the header and body of every
// small frame already waiting, and Next reads again only when the buffer
// holds no whole frame. A read runs at most readSlack bytes past the frame
// it completes, and one whose payload exceeds readSlack is completed by
// reading exactly its remainder. The only copy the reader makes is moving a
// partial frame's prefix — at most readSlack bytes — to the front of the
// buffer before it reads again. The buffer grows to HeaderSize plus the
// larger of readSlack and the largest payload seen, doubling as a large
// frame's bytes arrive rather than at its header.
//
// Ownership contract: the payload returned by Next is a view of the
// reader's buffer, capped at its own length, and valid only until the next
// Next call. A consumer that needs the bytes longer must copy them before
// returning to the read loop.
//
// A FrameReader reads ahead: once it has read from r, r's remaining bytes
// belong to it.
type FrameReader struct {
	r   io.Reader
	buf []byte
	// buf[off:end] is what has been read and not yet handed out.
	off, end int
	// moved counts the bytes compaction has copied to the front of buf.
	moved int
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame's type and payload. The payload is valid
// only until the next call to Next. At a frame boundary the end of the
// stream is io.EOF; inside a header it is io.ErrUnexpectedEOF, and inside a
// payload a wrapped io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (msgType uint8, payload []byte, err error) {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
	}
	need, n := HeaderSize, -1 // n is the payload length once the header is in
	for {
		if n < 0 && fr.end-fr.off >= HeaderSize {
			if msgType, n, err = parseHeader(fr.buf[fr.off : fr.off+HeaderSize]); err != nil {
				return 0, nil, err
			}
			need = HeaderSize + n
		}
		if n >= 0 && fr.end-fr.off >= need {
			start := fr.off + HeaderSize
			fr.off += need
			return msgType, fr.buf[start:fr.off:fr.off], nil
		}
		if err = fr.fill(need, n); err != nil {
			if n >= 0 {
				return 0, nil, shortPayload(err)
			}
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
}

// fill makes one read towards the need bytes of the frame at the front of
// the buffer, whose payload is n bytes long (negative while its header is
// incomplete).
func (fr *FrameReader) fill(need, n int) error {
	if fr.off > 0 {
		fr.moved += copy(fr.buf, fr.buf[fr.off:fr.end])
		fr.off, fr.end = 0, fr.end-fr.off
	}
	if fr.end == len(fr.buf) {
		// The frame has filled the buffer: double it, capped at the
		// frame's need, so a header claiming a large payload costs memory
		// only as the payload's bytes arrive.
		grown := make([]byte, max(HeaderSize+readSlack, min(need, 2*len(fr.buf))))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	lim := need
	if n <= readSlack {
		lim = need + readSlack
	}
	k, err := fr.r.Read(fr.buf[fr.end:min(lim, len(fr.buf))])
	fr.end += k
	if k > 0 {
		// The bytes come first; an error that lasts, such as the end of
		// the stream, comes back from the next read.
		return nil
	}
	return err
}

// ErrBadBatch reports a malformed batch payload.
var ErrBadBatch = errors.New("wire: malformed batch payload")

// EncodeBatch packs event payloads into one batch frame payload: a uint32
// count followed by count length-prefixed payloads. A writer that wakes up
// with several events queued for the same peer coalesces them into a single
// frame — one length prefix, one syscall — while preserving their order.
// Empty and single-event batches are valid.
func EncodeBatch(events [][]byte) []byte {
	size := 4
	for _, ev := range events {
		size += 4 + len(ev)
	}
	return AppendBatch(make([]byte, 0, size), events)
}

// AppendBatch appends the batch encoding of events to dst and returns the
// extended buffer, so a writer with a reusable scratch buffer can encode
// batches without allocating.
func AppendBatch(dst []byte, events [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(events)))
	for _, ev := range events {
		dst = AppendBytesField(dst, ev)
	}
	return dst
}

// DecodeBatchInto unpacks a batch frame payload into its event payloads, in
// the order they were encoded, appending each event to dst (reusing dst's
// backing array) and returning the extended slice.
//
// Zero-copy ownership contract: the appended event slices are subslices of
// buf — no bytes are copied. They are valid only while the caller owns buf;
// once buf is reused (e.g. the connection's receive buffer accepts the next
// frame) every returned event aliases the new contents. Consumers must
// finish with, or copy, each event before releasing buf.
func DecodeBatchInto(dst [][]byte, buf []byte) ([][]byte, error) {
	d := NewDecoder(buf)
	n := d.Uint32()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, d.Err())
	}
	// Each event costs at least its 4-byte length prefix; reject counts the
	// payload cannot possibly hold before allocating for them.
	if int64(n)*4 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: count %d exceeds payload", ErrBadBatch, n)
	}
	if dst == nil {
		dst = make([][]byte, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		dst = append(dst, d.BytesFieldView())
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	return dst, nil
}

// Encoder serializes fields into a growable buffer. The zero value is ready
// to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. The buffer is owned by the encoder and
// valid until the next mutating call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint16 appends a big-endian 16-bit value.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// Uint32 appends a big-endian 32-bit value.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a big-endian 64-bit value.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a 64-bit signed value (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Time appends a timestamp as nanoseconds since the Unix epoch.
func (e *Encoder) Time(t time.Time) { e.Int64(t.UnixNano()) }

// String appends a length-prefixed UTF-8 string (max 4 GiB).
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// BytesField appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// AppendString appends a length-prefixed string to dst (the Encoder.String
// encoding) and returns the extended buffer, for callers that manage their
// own scratch buffers instead of an Encoder.
func AppendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendBytesField appends a length-prefixed byte slice to dst (the
// Encoder.BytesField encoding) and returns the extended buffer.
func AppendBytesField(dst []byte, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Trace extension: a sampled event record carries its trace ID and the
// publisher's send timestamp as a fixed-size trailer appended after the
// last field. Unsampled events — the overwhelming majority — pay zero
// bytes. The trailer is self-identifying: Decoder.TraceExt consumes it only
// when exactly TraceExtSize bytes remain and the marker matches, so a
// decoder that ignores it still rejects the record via Finish exactly as it
// rejects any other trailing bytes (no silent misparse on either side).
const (
	// TraceExtSize is the trailer length: marker byte + trace ID + send
	// time in Unix nanoseconds.
	TraceExtSize = 1 + 8 + 8
	// traceExtMarker distinguishes the trailer from ordinary field bytes.
	traceExtMarker = 0x54 // 'T'
)

// AppendTraceExt appends the trace trailer to an encoded record.
func AppendTraceExt(dst []byte, traceID uint64, sendUnixNano int64) []byte {
	dst = append(dst, traceExtMarker)
	dst = binary.BigEndian.AppendUint64(dst, traceID)
	return binary.BigEndian.AppendUint64(dst, uint64(sendUnixNano))
}

// TraceExt consumes the trace trailer if (and only if) it is exactly what
// remains in the buffer, returning its contents. When absent or malformed
// it consumes nothing and reports ok=false, leaving Finish to classify the
// leftover bytes.
func (d *Decoder) TraceExt() (traceID uint64, sendUnixNano int64, ok bool) {
	if d.err != nil || d.Remaining() != TraceExtSize || d.buf[d.off] != traceExtMarker {
		return 0, 0, false
	}
	d.off++
	traceID = binary.BigEndian.Uint64(d.buf[d.off:])
	sendUnixNano = int64(binary.BigEndian.Uint64(d.buf[d.off+8:]))
	d.off += 16
	return traceID, sendUnixNano, true
}

// Hop extension: a record traveling through a relay tree carries its hop
// count as a fixed-size trailer so relays can bound propagation depth (loop
// prevention) and receivers can attribute latency to tree depth. Like the
// trace extension it is self-identifying and optional: flat-mesh records
// never carry it and pay zero bytes. When both extensions are present the
// hop trailer precedes the trace trailer — relays rewrite the hop byte in
// place at a fixed offset from the record's end, which a variable trailer
// order would break.
const (
	// HopExtSize is the trailer length: marker byte + hop count.
	HopExtSize = 1 + 1
	// hopExtMarker distinguishes the trailer from ordinary field bytes.
	hopExtMarker = 0x48 // 'H'
	// MaxHops bounds the hop counter (and with it relay-tree depth): the
	// counter is a single byte, and a record whose increment would pass
	// this value is dropped rather than forwarded.
	MaxHops = 255
)

// AppendHopExt appends the hop trailer to an encoded record. It must be
// appended before any trace trailer so the hop byte sits at a fixed
// distance from the record's end.
func AppendHopExt(dst []byte, hops uint8) []byte {
	return append(dst, hopExtMarker, hops)
}

// HopExt consumes the hop trailer if it is what remains in the buffer —
// either alone or followed by exactly one trace trailer — returning the hop
// count. When absent it consumes nothing and reports ok=false; the record
// then decodes exactly as a flat-mesh record does.
func (d *Decoder) HopExt() (hops uint8, ok bool) {
	r := d.Remaining()
	if d.err != nil || (r != HopExtSize && r != HopExtSize+TraceExtSize) || d.buf[d.off] != hopExtMarker {
		return 0, false
	}
	hops = d.buf[d.off+1]
	d.off += HopExtSize
	return hops, true
}

// Decoder deserializes fields from a buffer with a sticky error: after the
// first failure every subsequent read returns the zero value, and Err()
// reports the original problem. This mirrors the kernel pattern of a single
// validity check after parsing a whole record.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left to decode.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or bytes remain unconsumed.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrShortField
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint16 reads a big-endian 16-bit value.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian 32-bit value.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian 64-bit value.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a 64-bit signed value.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Time reads a timestamp encoded as Unix nanoseconds.
func (d *Decoder) Time() time.Time {
	ns := d.Int64()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// BytesField reads a length-prefixed byte slice. The result is copied so it
// remains valid independently of the decoder's backing buffer.
func (d *Decoder) BytesField() []byte {
	n := d.Uint32()
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// BytesFieldView reads a length-prefixed byte slice without copying. The
// result aliases the decoder's backing buffer and is only valid while that
// buffer is; callers that hand the buffer back (pooled receive buffers) must
// consume or copy the view first.
func (d *Decoder) BytesFieldView() []byte {
	n := d.Uint32()
	return d.take(int(n))
}

// StringBytes reads a length-prefixed string field, returning its raw bytes
// without the string allocation. Like BytesFieldView, the result aliases the
// decoder's buffer. Hot paths use it to compare or intern identifiers
// without allocating per record.
func (d *Decoder) StringBytes() []byte {
	n := d.Uint32()
	return d.take(int(n))
}
