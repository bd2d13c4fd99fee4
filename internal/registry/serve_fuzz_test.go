package registry

import (
	"bytes"
	"maps"
	"net"
	"testing"

	"dproc/internal/clock"
	"dproc/internal/wire"
)

// scriptConn is a connection whose peer sent script and then closed: reads
// drain script to EOF, writes collect in out. Only the methods serveConn
// calls are implemented.
type scriptConn struct {
	net.Conn
	r   *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// frames reads whole frames off b until the first that does not read, the
// way serveConn does.
func frames(b []byte) (types []uint8, payloads [][]byte) {
	fr := wire.NewFrameReader(bytes.NewReader(b))
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			return types, payloads
		}
		types, payloads = append(types, typ), append(payloads, bytes.Clone(payload))
	}
}

// request is one encoded registry request frame.
func request(typ uint8, fields ...string) []byte {
	e := wire.NewEncoder(64)
	for _, f := range fields {
		e.String(f)
	}
	var buf bytes.Buffer
	_ = wire.WriteFrame(&buf, typ, e.Bytes())
	return buf.Bytes()
}

// FuzzServeRegistry feeds any bytes as what a member sent the registry on
// one connection through serveConn and handle. The server must never panic,
// must answer each whole frame with exactly one msgOK or msgError reply
// (and nothing after the first frame that does not read), and every member
// a join or heartbeat registered and no leave removed is listed by Lookup
// with the address and role it gave.
func FuzzServeRegistry(f *testing.F) {
	join := request(msgJoin, "mon", "alan", "127.0.0.1:7501", "relay")
	f.Add(join)
	f.Add(bytes.Join([][]byte{
		request(1, "mon"), // the retired create request
		join,
		request(msgHeartbeat, "mon", "maui", "127.0.0.1:7502"),
		request(msgLookup, "mon"),
		request(5), // the retired list request
		request(msgLeave, "mon", "alan"),
		request(msgJoin, "ctl", "etna", "127.0.0.1:7503", ""),
	}, nil))
	f.Add(bytes.Join([][]byte{
		request(msgJoin, "mon", "", "127.0.0.1:7501"),
		request(msgLookup, "absent"),
		request(42),
		request(1, ""),
		join[:len(join)-3],
	}, nil))
	f.Fuzz(func(t *testing.T, script []byte) {
		s := &Server{
			clk:      clock.NewVirtual(clock.Epoch),
			channels: make(map[string]map[string]*memberEntry),
			conns:    make(map[net.Conn]struct{}),
		}
		conn := &scriptConn{r: bytes.NewReader(script)}
		s.serveConn(conn)

		reqTypes, reqs := frames(script)
		replyTypes, _ := frames(conn.out.Bytes())
		if len(replyTypes) != len(reqTypes) {
			t.Fatalf("%d whole request frames got %d replies", len(reqTypes), len(replyTypes))
		}
		want := map[string]map[string]Member{}
		for i, typ := range reqTypes {
			switch replyTypes[i] {
			case msgError:
				continue
			case msgOK:
			default:
				t.Fatalf("request %d (type %d): reply type %d, want msgOK or msgError", i, typ, replyTypes[i])
			}
			d := wire.NewDecoder(reqs[i])
			switch typ {
			case msgJoin, msgHeartbeat:
				m := Member{}
				name := d.String()
				m.ID, m.Addr = d.String(), d.String()
				if d.Remaining() > 0 {
					m.Role = d.String()
				}
				if want[name] == nil {
					want[name] = map[string]Member{}
				}
				want[name][m.ID] = m
			case msgLeave:
				name := d.String()
				delete(want[name], d.String())
			}
		}
		for name, members := range want {
			e := wire.NewEncoder(32)
			e.String(name)
			reply, err := s.handle(msgLookup, e.Bytes())
			if err != nil {
				t.Fatalf("Lookup(%q): %v", name, err)
			}
			listed, err := decodeMembers(reply)
			if err != nil {
				t.Fatalf("Lookup(%q) roster: %v", name, err)
			}
			got := map[string]Member{}
			for _, m := range listed {
				got[m.ID] = m
			}
			if !maps.Equal(got, members) {
				t.Fatalf("Lookup(%q) lists %v, want %v", name, got, members)
			}
		}
	})
}
