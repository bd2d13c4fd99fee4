package registry

import (
	"errors"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/faultnet"
	"dproc/internal/metrics"
	"dproc/internal/wire"
)

func newTTLServer(t *testing.T, ttl time.Duration) (*Server, *clock.Virtual, *Client) {
	t.Helper()
	vclk := clock.NewVirtual(clock.Epoch)
	ln, err := wire.TCP{}.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWith(ln, ServerOptions{Clock: vclk, TTL: ttl})
	t.Cleanup(func() { s.Close() })
	c := NewClient(s.Addr())
	t.Cleanup(func() { c.Close() })
	return s, vclk, c
}

// counter reads one of c's recovery counters the way a node's exporters do.
func counter(c *Client, name string) uint64 {
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	v, _ := reg.Value("registry", "", name)
	return v
}

func TestTTLExpiresSilentMembers(t *testing.T) {
	s, vclk, c := newTTLServer(t, time.Minute)
	if _, err := c.Join("mon", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("mon", "m2", "127.0.0.1:9002"); err != nil {
		t.Fatal(err)
	}
	if n := s.MemberCount("mon"); n != 2 {
		t.Fatalf("MemberCount = %d, want 2", n)
	}
	vclk.Advance(2 * time.Minute)
	members, err := c.Lookup("mon")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 0 {
		t.Fatalf("Lookup after TTL = %v, want empty", members)
	}
	if n := s.ExpiredMembers(); n != 2 {
		t.Fatalf("ExpiredMembers = %d, want 2", n)
	}
}

func TestHeartbeatKeepsMemberAlive(t *testing.T) {
	s, vclk, c := newTTLServer(t, time.Minute)
	if _, err := c.Join("mon", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	// Two 40s gaps each bridged by a heartbeat: total silence never reaches
	// the 60s TTL, so the member survives 80s of wall time.
	vclk.Advance(40 * time.Second)
	rejoined, err := c.Heartbeat("mon", "m1", "127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	if rejoined {
		t.Fatal("heartbeat of a live member reported a rejoin")
	}
	vclk.Advance(40 * time.Second)
	members, err := c.Lookup("mon")
	if err != nil || len(members) != 1 {
		t.Fatalf("Lookup = %v, %v; want m1 alive", members, err)
	}
	if n := s.ExpiredMembers(); n != 0 {
		t.Fatalf("ExpiredMembers = %d, want 0", n)
	}
}

func TestHeartbeatResurrectsExpiredMember(t *testing.T) {
	s, vclk, c := newTTLServer(t, time.Minute)
	if _, err := c.Join("mon", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	vclk.Advance(2 * time.Minute)
	rejoined, err := c.Heartbeat("mon", "m1", "127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	if !rejoined {
		t.Fatal("heartbeat after expiry did not re-register")
	}
	if n := s.MemberCount("mon"); n != 1 {
		t.Fatalf("MemberCount = %d, want 1", n)
	}
	if got := counter(c, "rejoins"); got != 1 {
		t.Fatalf("client Rejoins = %d, want 1", got)
	}
}

func TestHeartbeatRejoinsAfterServerRestart(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c := NewClient(addr)
	t.Cleanup(func() { c.Close() })
	if _, err := c.Join("mon", "m1", "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var s2 *Server
	deadline := time.Now().Add(2 * time.Second)
	for {
		s2, err = NewServer(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { s2.Close() })

	// The same client heartbeats through its retry path; the fresh server
	// does not know the member, so the heartbeat re-registers it.
	rejoined, err := c.Heartbeat("mon", "m1", "127.0.0.1:9001")
	if err != nil {
		t.Fatalf("Heartbeat after restart: %v", err)
	}
	if !rejoined {
		t.Fatal("heartbeat against the fresh server did not re-register")
	}
	members, err := c.Lookup("mon")
	if err != nil || len(members) != 1 || members[0].ID != "m1" {
		t.Fatalf("Lookup = %v, %v; want m1", members, err)
	}
	if n := counter(c, "redials"); n < 1 {
		t.Fatalf("Redials = %d, want >= 1 (client had to re-dial)", n)
	}
	if n := counter(c, "rejoins"); n < 1 {
		t.Fatalf("Rejoins = %d, want >= 1", n)
	}
}

func TestDecodeMembersRejectsImplausibleCount(t *testing.T) {
	// A frame claiming 2^31 members but carrying no entry bytes must be
	// rejected before any allocation is sized from the count.
	e := wire.NewEncoder(8)
	e.Uint32(1 << 31)
	if _, err := decodeMembers(e.Bytes()); err == nil {
		t.Fatal("decodeMembers accepted an implausible count")
	} else if !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("err = %v, want implausible-count error", err)
	}
	// A well-formed list still decodes.
	good := encodeMembers([]Member{{ID: "m1", Addr: "127.0.0.1:9001"}})
	members, err := decodeMembers(good)
	if err != nil || len(members) != 1 || members[0].ID != "m1" {
		t.Fatalf("decodeMembers(good) = %v, %v", members, err)
	}
}

// A request that cannot reach the registry fails with one message that
// names the registry once and its address once, whatever the transport,
// and still carries the transport's own error for errors.Is and errors.As.
func TestUnreachableErrorNamesServerOnce(t *testing.T) {
	check := func(t *testing.T, c *Client, addr string) error {
		t.Helper()
		_, err := c.Lookup("mon")
		if err == nil {
			t.Fatal("Lookup of an unreachable registry succeeded")
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "registry: cannot reach server at "+addr+": ") ||
			strings.Count(msg, "registry:") != 1 || strings.Count(msg, addr) != 1 {
			t.Fatalf("error names the registry or its address more than once: %q", msg)
		}
		var op *net.OpError
		if !errors.As(err, &op) || op.Op != "dial" {
			t.Fatalf("the dial's *net.OpError is not reachable from %q", msg)
		}
		return err
	}
	t.Run("tcp", func(t *testing.T) {
		ln, err := wire.TCP{}.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		c := NewClient(addr)
		defer c.Close()
		if err := check(t, c, addr); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("errors.Is(%q, ECONNREFUSED) is false", err)
		}
	})
	t.Run("faultnet", func(t *testing.T) {
		fabric := faultnet.NewFabric(1)
		ln, err := fabric.Host("directory").Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServerWith(ln, ServerOptions{})
		defer s.Close()
		fabric.Refuse("directory")
		c := NewClient(s.Addr())
		c.SetTransport(fabric.Host("node"))
		defer c.Close()
		check(t, c, s.Addr())
	})
}
