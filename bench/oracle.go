package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Event payloads are seeded-PRNG bytes that carry their own proof: a body
// drawn from the seed, then the event's sequence number, then a CRC-32 over
// both. A subscriber can therefore check, from the bytes alone, that the
// event is the one it is owed next and that nothing in it changed on the
// way.

const (
	// payloadTemplates is how many distinct bodies rotate through a run, so
	// consecutive events differ in every byte without drawing fresh random
	// bytes per event.
	payloadTemplates = 32
	payloadTrailer   = 8 + 4 // sequence number + CRC-32
)

// payloads builds the events of one run. Not safe for concurrent use: the
// generator goroutine owns it.
type payloads struct {
	tmpl [][]byte // each len size; the last payloadTrailer bytes are rewritten per event
	crc  []uint32 // CRC-32 of each template's body, so stamping costs O(trailer)
}

func newPayloads(seed int64, size int) *payloads {
	if size < payloadTrailer+1 {
		size = payloadTrailer + 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := &payloads{}
	for i := 0; i < payloadTemplates; i++ {
		b := make([]byte, size)
		rng.Read(b[:size-payloadTrailer])
		p.tmpl = append(p.tmpl, b)
		p.crc = append(p.crc, crc32.ChecksumIEEE(b[:size-payloadTrailer]))
	}
	return p
}

// next returns the payload of event seq. The slice is reused for event
// seq+payloadTemplates; kecho copies it at Publish, which is all a caller
// may assume of any publisher.
func (p *payloads) next(seq uint64) []byte {
	i := int(seq % payloadTemplates)
	b := p.tmpl[i]
	tail := b[len(b)-payloadTrailer:]
	binary.BigEndian.PutUint64(tail, seq)
	binary.BigEndian.PutUint32(tail[8:], crc32.Update(p.crc[i], crc32.IEEETable, tail[:8]))
	return b
}

// checkPayload reports whether b is an intact payload of event want.
func checkPayload(b []byte, want uint64) bool {
	if len(b) < payloadTrailer+1 {
		return false
	}
	n := len(b) - 4
	if binary.BigEndian.Uint32(b[n:]) != crc32.ChecksumIEEE(b[:n]) {
		return false
	}
	return binary.BigEndian.Uint64(b[n-8:n]) == want
}

// sequence is one subscriber's view of one origin: events must arrive
// contiguous, in order, exactly once. After a violation it resynchronises
// on the offending event, so one gap is one failure, not a cascade.
type sequence struct {
	next uint64 // the sequence number owed next; publishers start at 1
}

func (s *sequence) accept(seq uint64) bool {
	ok := seq == s.next
	s.next = seq + 1
	return ok
}
