package adminproto

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/query"
	"dproc/internal/registry"
	"dproc/internal/tsdb"
)

// normalized parses text and anchors it at now, as a coordinator would.
func normalized(t testing.TB, text string, now time.Time) tsdb.Query {
	t.Helper()
	q, err := tsdb.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	nq, err := query.Normalize(q, now)
	if err != nil {
		t.Fatal(err)
	}
	return nq
}

// readPartReply reads one kept-connection querypart reply: the status line
// and the part up to its blank-line terminator.
func readPartReply(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	var sb strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply cut short after %q: %v", sb.String()+line, err)
		}
		if line == "\n" {
			return sb.String()
		}
		sb.WriteString(line)
	}
}

// The coordinator computes its own part in process with the function a
// querypart leaf runs, so the two must render to the same bytes; and a
// client that half-closes and reads to EOF, as before connections were
// kept, gets exactly that part plus the terminator.
func TestSelfPartMatchesWirePart(t *testing.T) {
	_, vclk, servers := queryCluster(t, 2, 20, nil)
	srv := servers[0]
	for _, text := range []string{"p99 loadavg last 30s", "avg freemem last 30s"} {
		nq := normalized(t, text, vclk.Now())
		local, err := srv.localPart(nq)
		if err != nil {
			t.Fatal(err)
		}
		if local.Count == 0 {
			t.Fatalf("%s: fixture has no samples", text)
		}
		self, err := srv.fetchPart(context.Background(), query.Target{Node: srv.node.Name(), Addr: srv.Addr()}, nq)
		if err != nil || self.Render() != local.Render() {
			t.Fatalf("%s: in-process fetch %+v, %v; want %+v", text, self, err, local)
		}
		wire, err := NewClient(srv.Addr()).roundTrip("querypart "+nq.String()+"\n", nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := local.Render() + "\n"; wire != want {
			t.Fatalf("%s: leaf reply body\n%q\nin-process part\n%q", text, wire, want)
		}
		if _, err := query.ParsePart(wire); err != nil {
			t.Fatalf("%s: read-to-EOF reply does not parse: %v", text, err)
		}
	}
}

// The keep-alive contract at the socket: querypart replies end with a blank
// line and the connection takes another request; any other verb is
// answered once and the connection closed, also when it follows a
// querypart on a kept connection.
func TestQueryPartKeepAliveContract(t *testing.T) {
	_, vclk, servers := queryCluster(t, 1, 10, nil)
	addr := servers[0].Addr()
	req := "querypart " + normalized(t, "p99 loadavg last 30s", vclk.Now()).String() + "\n"

	// readToEOF fails the test if the server leaves the connection open: its
	// own phase timeout is 30 s, far past this deadline.
	readToEOF := func(conn net.Conn, r *bufio.Reader) string {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		rest, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("server kept the connection open after %q: %v", rest, err)
		}
		return string(rest)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	var first string
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		reply := readPartReply(t, r)
		if !strings.HasPrefix(reply, "OK\n") {
			t.Fatalf("querypart %d: %q", i, reply)
		}
		if i == 0 {
			first = reply
		} else if reply != first {
			t.Fatalf("second querypart on the connection: %q, first %q", reply, first)
		}
	}
	if _, err := io.WriteString(conn, "status\n"); err != nil {
		t.Fatal(err)
	}
	if out := readToEOF(conn, r); !strings.HasPrefix(out, "OK\nnode node0") {
		t.Fatalf("status after querypart: %q", out)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := io.WriteString(conn2, "status\n"); err != nil {
		t.Fatal(err)
	}
	if out := readToEOF(conn2, bufio.NewReader(conn2)); !strings.HasPrefix(out, "OK\n") {
		t.Fatalf("status: %q", out)
	}
}

// Self is answered in process and peers over kept connections: a second
// query dials nothing. A leaf closes a kept connection once it has idled
// past its phase timeout; the next query finds it dead before any reply
// byte, dials once more per peer, and is whole.
func TestQueryPartRetriesConnectionTheLeafClosed(t *testing.T) {
	const idle = 300 * time.Millisecond
	fabric := faultnet.NewFabric(1)
	_, _, servers := queryCluster(t, 3, 10, func(name string) ServerOptions {
		return ServerOptions{Timeout: idle, Transport: fabric.Host(name)}
	})
	whole := func(stage string, wantDials uint64) {
		t.Helper()
		res, err := servers[0].QueryAllResult("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if res.Partial || res.OK != 3 {
			t.Fatalf("%s: not whole:\n%s", stage, res.Render())
		}
		if got := fabric.Stats().DialsAttempted; got != wantDials {
			t.Fatalf("%s: %d dials in all, want %d", stage, got, wantDials)
		}
	}
	whole("first query", 2) // two peers; no loopback dial for self
	whole("second query", 2)
	time.Sleep(3 * idle)
	whole("after the leaves closed their idle connections", 4)
}

// dialCounter is plain TCP that counts dials per address.
type dialCounter struct {
	mu    sync.Mutex
	dials map[string]int
}

func (d *dialCounter) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (d *dialCounter) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.dials[address]++
	d.mu.Unlock()
	return net.DialTimeout(network, address, timeout)
}

func (d *dialCounter) count() (per map[string]int, total int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	per = make(map[string]int, len(d.dials))
	for addr, n := range d.dials {
		per[addr] = n
		total += n
	}
	return per, total
}

// TestQueryAllDialCounts is DESIGN §12's connection count as a gate, on a
// 4-node cluster: a coordinator never dials itself, dials each peer at most
// once on its first queryall, and nothing on the ten after — its querypart
// connections are kept (putPart), not redialed per query.
func TestQueryAllDialCounts(t *testing.T) {
	counters := map[string]*dialCounter{}
	_, _, servers := queryCluster(t, 4, 10, func(name string) ServerOptions {
		counters[name] = &dialCounter{dials: map[string]int{}}
		return ServerOptions{Transport: counters[name]}
	})
	coord, counter := servers[0], counters[servers[0].node.Name()]
	query := func(stage string) {
		t.Helper()
		res, err := coord.QueryAllResult("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if res.Partial || res.OK != 4 {
			t.Fatalf("%s: not whole:\n%s", stage, res.Render())
		}
	}
	query("first queryall")
	per, first := counter.count()
	if n := per[coord.Addr()]; n != 0 {
		t.Fatalf("first queryall: %d dials to self, want 0", n)
	}
	for _, peer := range servers[1:] {
		if n := per[peer.Addr()]; n > 1 {
			t.Fatalf("first queryall: %d dials to peer %s, want <= 1", n, peer.node.Name())
		}
	}
	for i := 0; i < 10; i++ {
		query(fmt.Sprintf("queryall %d after the first", i+1))
	}
	if _, total := counter.count(); total != first {
		t.Fatalf("the ten queryalls after the first dialed %d times, want 0", total-first)
	}
}

// Overlapping fan-outs share the coordinator's clients: every query is
// whole, and each client keeps at most maxIdleParts connections after.
func TestConcurrentQueriesShareKeptConnections(t *testing.T) {
	_, _, servers := queryCluster(t, 3, 10, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := servers[0].QueryAllResult("p99 loadavg last 30s")
				if err != nil || res.Partial {
					t.Errorf("query: %v\n%s", err, res.Render())
					return
				}
			}
		}()
	}
	wg.Wait()
	srv := servers[0]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.clients) != 2 {
		t.Fatalf("%d fan-out clients, want one per peer", len(srv.clients))
	}
	for addr, c := range srv.clients {
		c.mu.Lock()
		n := len(c.idle)
		c.mu.Unlock()
		if n < 1 || n > maxIdleParts {
			t.Fatalf("client for %s keeps %d connections, want 1..%d", addr, n, maxIdleParts)
		}
	}
}

// A stalled leaf on a kept connection fails by timeout, which is never
// retried: the fan-out costs one per-node timeout, not two.
func TestStalledKeptConnectionCostsOneTimeout(t *testing.T) {
	const budget = 400 * time.Millisecond
	fabric := faultnet.NewFabric(1)
	_, _, servers := queryCluster(t, 3, 10, func(name string) ServerOptions {
		return ServerOptions{QueryTimeout: budget, Transport: fabric.Host(name)}
	})
	if res, err := servers[0].QueryAllResult("p99 loadavg last 30s"); err != nil || res.Partial {
		t.Fatalf("warm-up query: %v, %+v", err, res)
	}
	fabric.StallWrites("node1", true)
	defer fabric.StallWrites("node1", false)
	start := time.Now()
	res, err := servers[0].QueryAllResult("p99 loadavg last 30s")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Failed != 1 || res.Nodes[1].OK() {
		t.Fatalf("stalled node1 not the one failure:\n%s", res.Render())
	}
	if elapsed < budget || elapsed >= 2*budget {
		t.Fatalf("stalled fan-out took %v, want one %v timeout", elapsed, budget)
	}
}

// A leaf's Close does not wait out the phase timeout of a connection a
// coordinator keeps to it.
func TestServerCloseWithKeptConnection(t *testing.T) {
	_, _, servers := queryCluster(t, 2, 10, nil)
	if res, err := servers[0].QueryAllResult("avg loadavg last 30s"); err != nil || res.OK != 2 {
		t.Fatalf("query: %v, %+v", err, res)
	}
	start := time.Now()
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("Close took %v with a kept connection open to it", elapsed)
	}
}

// A querypart reply cut short by a clean EOF after its count line used to
// parse: it added its count to the merged samples and nothing to the
// histogram, and the result claimed to be whole. That node now fails.
func TestQueryAllFailsTruncatedPart(t *testing.T) {
	cluster, vclk, servers := queryCluster(t, 3, 10, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				line, _ := bufio.NewReader(conn).ReadString('\n')
				q, err := tsdb.ParseQuery(strings.TrimPrefix(strings.TrimSpace(line), "querypart "))
				if err != nil {
					return
				}
				fmt.Fprintf(conn, "OK\nfrom %dns\nto %dns\ncount 5\n", q.From, q.To)
			}()
		}
	}()
	reg := registry.NewClient(cluster.Registry.Addr())
	defer reg.Close()
	if _, err := reg.Join(AdminChannel, "fake", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	nq := normalized(t, "p99 loadavg last 30s", vclk.Now())
	samples := 0
	for _, node := range cluster.Nodes {
		node.DMon().Store().TSDB().Scan(dmon.SeriesKey(node.Name(), "loadavg"), nq.From, nq.To, func(tsdb.Point) { samples++ })
	}
	out, err := NewClient(servers[0].Addr()).QueryAll("p99 loadavg last 30s")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nodes 4 ok 3 failed 1\n",
		"partial true\n",
		"node fake error ",
		fmt.Sprintf("samples %d\n", samples),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("want %q in:\n%s", want, out)
		}
	}
}

// BenchmarkQueryAll is one operator queryall — p99 over 30 s of loadavg on
// a 4-node cluster — from one Client: the client's own connection to the
// coordinator, the coordinator's part in process and three over its kept
// connections, and the merge.
func BenchmarkQueryAll(b *testing.B) {
	_, _, servers := queryCluster(b, 4, 40, nil)
	c := NewClient(servers[0].Addr())
	queryAll := func() {
		out, err := c.QueryAll("p99 loadavg last 30s")
		if err != nil || !strings.Contains(out, "partial false") {
			b.Fatalf("queryall: %v\n%s", err, out)
		}
	}
	queryAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queryAll()
	}
}
