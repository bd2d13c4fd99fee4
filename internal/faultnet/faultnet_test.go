package faultnet

import (
	"net"
	"testing"
	"time"
)

// pipePair listens on hostB, dials from hostA, and returns both conn ends.
func pipePair(t *testing.T, f *Fabric, hostA, hostB string) (dial, accept net.Conn) {
	t.Helper()
	ln, err := f.Host(hostB).Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	errc := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		accepted <- c
	}()
	dc, err := f.Host(hostA).DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	select {
	case ac := <-accepted:
		t.Cleanup(func() { ac.Close() })
		return dc, ac
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		t.Fatal("accept timed out")
	}
	return nil, nil
}

func TestPlainPipeCarriesData(t *testing.T) {
	f := NewFabric(1)
	dc, ac := pipePair(t, f, "a", "b")
	if _, err := dc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := ac.Read(buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read = %q, %v", buf, err)
	}
}

func TestRefuseDial(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("b").Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	f.Refuse("b")
	if _, err := f.Host("a").DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("dial to refused host succeeded")
	}
	if s := f.Stats(); s.DialsRefused != 1 {
		t.Fatalf("DialsRefused = %d", s.DialsRefused)
	}
	f.Allow("b")
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := f.Host("a").DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after Allow: %v", err)
	}
	c.Close()
}

func TestSeverKillsLiveConn(t *testing.T) {
	f := NewFabric(1)
	dc, ac := pipePair(t, f, "a", "b")
	if n := f.Sever("a", "b"); n != 1 {
		t.Fatalf("Sever killed %d conns, want 1", n)
	}
	if _, err := dc.Write([]byte("x")); err == nil {
		t.Fatal("write on severed conn succeeded")
	}
	// The accept side shares the TCP pair, so its read fails too.
	ac.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := ac.Read(buf); err == nil {
		t.Fatal("read on severed conn succeeded")
	}
	if s := f.Stats(); s.ConnsKilled != 1 {
		t.Fatalf("ConnsKilled = %d", s.ConnsKilled)
	}
}

func TestKillAfterFrames(t *testing.T) {
	f := NewFabric(1)
	f.KillAfterFrames("a", "b", 2)
	dc, _ := pipePair(t, f, "a", "b")
	if _, err := dc.Write([]byte("1")); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if _, err := dc.Write([]byte("2")); err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if _, err := dc.Write([]byte("3")); err == nil {
		t.Fatal("frame 3 succeeded past the kill budget")
	}
}

func TestStallWritesHonoursDeadline(t *testing.T) {
	f := NewFabric(1)
	dc, _ := pipePair(t, f, "a", "b")
	f.StallWrites("b", true)
	dc.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := dc.Write([]byte("x"))
	if err == nil {
		t.Fatal("stalled write succeeded")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("write returned before the deadline")
	}
	// Clearing the stall lets writes through again.
	f.StallWrites("b", false)
	dc.SetWriteDeadline(time.Time{})
	if _, err := dc.Write([]byte("y")); err != nil {
		t.Fatalf("write after unstall: %v", err)
	}
}

func TestStallReadsBlocksUntilCleared(t *testing.T) {
	f := NewFabric(1)
	dc, ac := pipePair(t, f, "a", "b")
	f.StallReads("b", true)
	if _, err := dc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := ac.Read(buf)
		got <- err
	}()
	select {
	case <-got:
		t.Fatal("stalled read returned")
	case <-time.After(20 * time.Millisecond):
	}
	f.StallReads("b", false)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read after unstall: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read did not resume after unstall")
	}
}

func TestLatencyDeterministicPerSeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		f := NewFabric(seed)
		dc, _ := pipePair(t, f, "a", "b")
		f.SetLatency("b", 2*time.Millisecond, 6*time.Millisecond)
		var out []time.Duration
		for i := 0; i < 4; i++ {
			start := time.Now()
			if _, err := dc.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
			out = append(out, time.Since(start))
		}
		return out
	}
	a := delays(42)
	for i, d := range a {
		if d < 2*time.Millisecond {
			t.Fatalf("delay[%d] = %v below the configured floor", i, d)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	f := NewFabric(1)
	f.SetGroup("a", "west")
	f.SetGroup("b", "east")
	dc, _ := pipePair(t, f, "a", "b")
	lnB, err := f.Host("b").Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()

	if n := f.Partition("west", "east"); n != 1 {
		t.Fatalf("Partition killed %d conns, want 1", n)
	}
	if _, err := dc.Write([]byte("x")); err == nil {
		t.Fatal("write across partition succeeded")
	}
	if _, err := f.Host("a").DialTimeout("tcp", lnB.Addr().String(), time.Second); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	// Hosts in the same group still connect.
	f.SetGroup("c", "east")
	go func() {
		c, err := lnB.Accept()
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1)
			c.Read(buf)
		}
	}()
	cc, err := f.Host("c").DialTimeout("tcp", lnB.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("same-group dial failed: %v", err)
	}
	cc.Close()

	f.Heal()
	go func() {
		c, err := lnB.Accept()
		if err == nil {
			c.Close()
		}
	}()
	hc, err := f.Host("a").DialTimeout("tcp", lnB.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after Heal failed: %v", err)
	}
	hc.Close()
}

func TestCrashRefusesAndKills(t *testing.T) {
	f := NewFabric(1)
	dc, _ := pipePair(t, f, "a", "b")
	lnAddr := dc.RemoteAddr().String()
	// Both wrapper ends of the a<->b TCP pair touch host b (the accept-side
	// wrapper lives on b), so Crash kills both.
	if n := f.Crash("b"); n < 1 {
		t.Fatalf("Crash killed %d conns, want >= 1", n)
	}
	if _, err := dc.Write([]byte("x")); err == nil {
		t.Fatal("write to crashed host succeeded")
	}
	if _, err := f.Host("a").DialTimeout("tcp", lnAddr, time.Second); err == nil {
		t.Fatal("dial to crashed host succeeded")
	}
}

// A crashed host dials nobody either: its dial to a live host is refused
// until Allow, and another host's dials are not touched.
func TestCrashRefusesOutboundDials(t *testing.T) {
	f := NewFabric(1)
	ln, err := f.Host("b").Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	f.Crash("a")
	if _, err := f.Host("a").DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("dial from a crashed host to a live one succeeded")
	}
	c, err := f.Host("c").DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial from a live host while another is down: %v", err)
	}
	c.Close()
	f.Allow("a")
	c, err = f.Host("a").DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial from a revived host: %v", err)
	}
	c.Close()
}
