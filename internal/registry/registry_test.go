package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := NewClient(s.Addr())
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestJoinReturnsPriorMembers(t *testing.T) {
	_, c := newTestServer(t)
	peers, err := c.Join("mon", "alan", "127.0.0.1:1001")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Fatalf("first joiner saw %d peers, want 0", len(peers))
	}
	peers, err = c.Join("mon", "maui", "127.0.0.1:1002")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != "alan" || peers[0].Addr != "127.0.0.1:1001" {
		t.Fatalf("second joiner peers = %+v", peers)
	}
	peers, err = c.Join("mon", "etna", "127.0.0.1:1003")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("third joiner saw %d peers, want 2", len(peers))
	}
	// Sorted by ID for determinism.
	if peers[0].ID != "alan" || peers[1].ID != "maui" {
		t.Fatalf("peers not sorted: %+v", peers)
	}
}

func TestJoinAutoCreatesChannel(t *testing.T) {
	s, c := newTestServer(t)
	if _, err := c.Join("fresh", "n1", "addr1"); err != nil {
		t.Fatal(err)
	}
	if s.MemberCount("fresh") != 1 {
		t.Fatalf("MemberCount = %d", s.MemberCount("fresh"))
	}
}

func TestRejoinSameIDReplacesAddr(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Join("mon", "alan", "127.0.0.1:1001"); err != nil {
		t.Fatal(err)
	}
	// Rejoin with a new address (e.g. node restarted).
	peers, err := c.Join("mon", "alan", "127.0.0.1:2001")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Fatalf("rejoining node must not see itself as a peer, got %+v", peers)
	}
	members, err := c.Lookup("mon")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].Addr != "127.0.0.1:2001" {
		t.Fatalf("members = %+v", members)
	}
}

func TestLeave(t *testing.T) {
	s, c := newTestServer(t)
	if _, err := c.Join("mon", "alan", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("mon", "maui", "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("mon", "alan"); err != nil {
		t.Fatal(err)
	}
	if s.MemberCount("mon") != 1 {
		t.Fatalf("MemberCount = %d, want 1", s.MemberCount("mon"))
	}
	// Leaving twice or from a nonexistent channel is not an error.
	if err := c.Leave("mon", "alan"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave("nope", "alan"); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnknownChannel(t *testing.T) {
	_, c := newTestServer(t)
	_, err := c.Lookup("ghost")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("err = %v", err)
	}
}

// TestRetiredRequestTypesGetErrors: types 1 and 5 were the create and list
// requests, which no client ever sent. Each now gets an error reply, as any
// unknown type does, and the connection goes on serving.
func TestRetiredRequestTypesGetErrors(t *testing.T) {
	s, c := newTestServer(t)
	if _, err := c.Join("mon", "alan", "127.0.0.1:7501"); err != nil {
		t.Fatal(err)
	}
	conn, err := wire.TCP{}.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	roundTrip := func(typ uint8, fields ...string) (uint8, []byte) {
		t.Helper()
		e := wire.NewEncoder(32)
		for _, f := range fields {
			e.String(f)
		}
		if err := wire.WriteFrame(conn, typ, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		rtyp, reply, err := fr.Next()
		if err != nil {
			t.Fatalf("request type %d: no reply: %v", typ, err)
		}
		return rtyp, reply
	}
	for _, req := range []struct {
		typ    uint8
		fields []string
	}{{1, []string{"mon"}}, {5, nil}} {
		rtyp, reply := roundTrip(req.typ, req.fields...)
		if msg := wire.NewDecoder(reply).String(); rtyp != msgError || msg != fmt.Sprintf("unknown request type %d", req.typ) {
			t.Fatalf("request type %d: reply type %d %q, want msgError \"unknown request type %d\"", req.typ, rtyp, msg, req.typ)
		}
	}
	rtyp, reply := roundTrip(msgLookup, "mon")
	if rtyp != msgOK {
		t.Fatalf("Lookup after the retired requests: reply type %d, want msgOK", rtyp)
	}
	if members, err := decodeMembers(reply); err != nil || len(members) != 1 || members[0].ID != "alan" {
		t.Fatalf("Lookup after the retired requests = %v, %v; want alan", members, err)
	}
}

func TestManyClientsConcurrentJoin(t *testing.T) {
	s, _ := newTestServer(t)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(s.Addr())
			defer c.Close()
			_, err := c.Join("mon", fmt.Sprintf("node%02d", i), fmt.Sprintf("127.0.0.1:%d", 10000+i))
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.MemberCount("mon") != n {
		t.Fatalf("MemberCount = %d, want %d", s.MemberCount("mon"), n)
	}
	// Peer-list invariant: the union of every joiner's prior-peer set plus
	// itself equals the final membership; verified via lookup.
	c := NewClient(s.Addr())
	defer c.Close()
	members, err := c.Lookup("mon")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != n {
		t.Fatalf("Lookup returned %d members", len(members))
	}
}

func TestClientSurvivesServerRestartlessReconnect(t *testing.T) {
	// A client whose cached connection dies must reconnect transparently.
	s, c := newTestServer(t)
	if _, err := c.Join("a", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	// Forcibly drop the client's connection.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if _, err := c.Join("b", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatalf("request after dropped conn failed: %v", err)
	}
	if s.MemberCount("a") != 1 || s.MemberCount("b") != 1 {
		t.Fatalf("members = %d in a, %d in b; want 1 each", s.MemberCount("a"), s.MemberCount("b"))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientAgainstClosedServer(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	s.Close()
	c := NewClient(addr)
	defer c.Close()
	if _, err := c.Join("x", "m1", "127.0.0.1:9001"); err == nil {
		t.Fatal("request against closed server succeeded")
	}
}

// BenchmarkRegistryHeartbeat is one member's keep-alive: a Client's
// heartbeat round trip over loopback to a Server, with the allocations of
// both ends counted. It is in make allocgate at a capped count.
func BenchmarkRegistryHeartbeat(b *testing.B) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient(s.Addr())
	defer c.Close()
	heartbeat := func() {
		if _, err := c.Heartbeat("mon", "alan", "127.0.0.1:7501"); err != nil {
			b.Fatal(err)
		}
	}
	heartbeat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heartbeat()
	}
}

// MemberCount returns the number of live members in a channel (0 if absent):
// what Lookup would list, read on the server.
func (s *Server) MemberCount(channel string) int {
	now := s.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.channels[channel]; ok {
		s.expireLocked(ch, now)
	}
	return len(s.channels[channel])
}
