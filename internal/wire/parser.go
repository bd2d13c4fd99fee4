package wire

// Parser is an incremental frame decoder for event-driven readers that are
// handed arbitrary byte chunks (nonblocking socket reads) instead of pulling
// whole frames from a blocking stream. It accumulates header and payload
// bytes across calls and performs the same validation as ReadFrame: magic,
// version, and the frame-size bound.
//
// The zero value is ready to use. A Parser is not safe for concurrent use.
type Parser struct {
	hdr  [HeaderSize]byte
	nHdr int
	typ  uint8
	need int
	// buf accumulates a payload that arrived split across reads. When a
	// frame lands whole inside one chunk the parser returns a view into the
	// caller's data instead (the zero-copy fast path), and buf stays empty.
	buf []byte
}

// Next consumes bytes from data, returning how many were consumed and, when
// a frame completed, its type and payload. A call consumes at most one
// frame; callers loop while data remains:
//
//	for len(data) > 0 {
//		n, typ, payload, ok, err := p.Next(data)
//		if err != nil { ... }
//		data = data[n:]
//		if ok { handle(typ, payload) }
//	}
//
// The returned payload is valid only until the next call to Next (it aliases
// either data or the parser's internal buffer). On error the parser is not
// resynchronizable; the caller should drop the connection, matching
// ReadFrame's contract.
func (p *Parser) Next(data []byte) (int, uint8, []byte, bool, error) {
	consumed := 0
	if p.nHdr < HeaderSize {
		n := copy(p.hdr[p.nHdr:], data)
		p.nHdr += n
		consumed += n
		data = data[n:]
		if p.nHdr < HeaderSize {
			return consumed, 0, nil, false, nil
		}
		var err error
		if p.typ, p.need, err = parseHeader(p.hdr[:]); err != nil {
			return consumed, 0, nil, false, err
		}
		// A previous oversized payload must not pin its buffer across
		// frames; the steady-state buffer is reused.
		if cap(p.buf) > maxPooledBuf {
			p.buf = nil
		}
		p.buf = p.buf[:0]
	}
	if len(p.buf) == 0 && len(data) >= p.need {
		// Fast path: the whole payload is already in this chunk — hand back
		// a view without copying.
		payload := data[:p.need]
		consumed += p.need
		typ := p.typ
		p.nHdr = 0
		return consumed, typ, payload, true, nil
	}
	take := p.need - len(p.buf)
	if take > len(data) {
		take = len(data)
	}
	if cap(p.buf) < p.need {
		grown := make([]byte, len(p.buf), p.need)
		copy(grown, p.buf)
		p.buf = grown
	}
	p.buf = append(p.buf, data[:take]...)
	consumed += take
	if len(p.buf) < p.need {
		return consumed, 0, nil, false, nil
	}
	typ := p.typ
	p.nHdr = 0
	return consumed, typ, p.buf, true, nil
}
