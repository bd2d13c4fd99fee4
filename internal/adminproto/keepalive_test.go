package adminproto

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/query"
	"dproc/internal/registry"
	"dproc/internal/tsdb"
	"dproc/internal/wire"
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

// readPartReply reads one kept-connection querypart reply: the "OK <n>"
// status line and the n bytes of the part.
func readPartReply(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	status, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reply cut short after %q: %v", status, err)
	}
	n, ok := partLength([]byte(status))
	if !ok {
		t.Fatalf("querypart status %q", status)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("part cut short after %q: %v", status, err)
	}
	return append([]byte(status), body...)
}

// readPartRequest reads one querypart request as a leaf does: the
// "querypart <n>" line and the n bytes of the binary query.
func readPartRequest(r *bufio.Reader) (tsdb.Query, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return tsdb.Query{}, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(line), "querypart "))
	if err != nil || n > tsdb.MaxQueryBytes {
		return tsdb.Query{}, fmt.Errorf("request line %q", line)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return tsdb.Query{}, err
	}
	return tsdb.DecodeQuery(body)
}

// The coordinator computes its own part in process with the function a
// querypart leaf runs, so the two must encode to the same bytes; and a
// client that half-closes and reads to EOF gets exactly that part behind
// its "OK <n>" line, then EOF.
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
		want := local.AppendBinary(nil)
		self, err := srv.fetchPart(context.Background(), query.Target{Node: srv.node.Name(), Addr: srv.Addr()}, nq)
		if err != nil || !bytes.Equal(self.AppendBinary(nil), want) {
			t.Fatalf("%s: in-process fetch %+v, %v; want %+v", text, self, err, local)
		}
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame(nq.AppendBinary(nil), "querypart")); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		wire, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status := fmt.Sprintf("OK %d\n", len(want)); !bytes.Equal(wire, append([]byte(status), want...)) {
			t.Fatalf("%s: leaf reply read to EOF\n%q\nin-process part behind %q\n%q", text, wire, status, want)
		}
	}
}

// The keep-alive contract at the socket: a querypart reply ends after the
// bytes its status line counts, and the connection takes another request;
// any other verb is answered once and the connection closed, also when it
// follows a querypart on a kept connection.
func TestQueryPartKeepAliveContract(t *testing.T) {
	_, vclk, servers := queryCluster(t, 1, 10, nil)
	addr := servers[0].Addr()
	req := frame(normalized(t, "p99 loadavg last 30s", vclk.Now()).AppendBinary(nil), "querypart")

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
	var first []byte
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		reply := readPartReply(t, r)
		if i == 0 {
			first = reply
		} else if !bytes.Equal(reply, first) {
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
// byte, dials once more per peer, and is whole. The fabric carries every
// connection of the cluster, so dials are counted from the moment the admin
// servers are up.
func TestQueryPartRetriesConnectionTheLeafClosed(t *testing.T) {
	const idle = 300 * time.Millisecond
	fabric := faultnet.NewFabric(1)
	_, _, servers := queryClusterOver(t, 3, 10, fabricHosts(fabric), func(_ int, cfg *core.Config) {
		cfg.AdminTimeout = idle
	})
	base := fabric.Stats().DialsAttempted
	whole := func(stage string, wantDials uint64) {
		t.Helper()
		res, err := servers[0].QueryAllResult("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if res.Partial || res.OK != 3 {
			t.Fatalf("%s: not whole:\n%s", stage, res.Render())
		}
		if got := fabric.Stats().DialsAttempted - base; got != wantDials {
			t.Fatalf("%s: %d dials since the admin servers started, want %d", stage, got, wantDials)
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
// 4-node cluster driven by an operator Client: a coordinator never dials
// itself, dials each peer at most once on its first queryall, and nothing on
// the ten after — its querypart connections are kept (putConn), not redialed
// per query — and the operator dials the coordinator once for all eleven.
// Each node's transport counts its dials; the node's channels and registry
// client dial through it too, so only dials to admin addresses are counted.
func TestQueryAllDialCounts(t *testing.T) {
	counters := map[string]*dialCounter{}
	_, _, servers := queryClusterOver(t, 4, 10, func(host string) wire.Transport {
		counters[host] = &dialCounter{dials: map[string]int{}}
		return counters[host]
	}, nil)
	coord, counter := servers[0], counters[servers[0].node.Name()]
	opCounter := &dialCounter{dials: map[string]int{}}
	op := NewClient(coord.Addr())
	op.SetTransport(opCounter)
	defer op.Close()
	query := func(stage string) {
		t.Helper()
		out, err := op.QueryAll("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !strings.Contains(out, "nodes 4 ok 4 failed 0\npartial false\n") {
			t.Fatalf("%s: not whole:\n%s", stage, out)
		}
	}
	adminDials := func() (per map[string]int, total int) {
		per, _ = counter.count()
		for _, srv := range servers {
			total += per[srv.Addr()]
		}
		return per, total
	}
	query("first queryall")
	per, first := adminDials()
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
	if _, n := opCounter.count(); n != 1 {
		t.Fatalf("the operator's eleven queryalls dialed the coordinator %d times, want 1 (%d extra)", n, n-1)
	}
	if _, total := adminDials(); total != first {
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
	_, _, servers := queryClusterOver(t, 3, 10, fabricHosts(fabric), func(_ int, cfg *core.Config) {
		cfg.QueryTimeout = budget
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

// A querypart reply cut short by a clean EOF, and a whole one whose count
// its buckets do not hold, both fail their node: either would add samples
// to the total that the merged histogram never saw, and the result would
// claim to be whole.
func TestQueryAllFailsTruncatedPart(t *testing.T) {
	cluster, vclk, servers := queryCluster(t, 3, 10, nil)
	answer := func(reply func(q tsdb.Query) []byte) func(net.Conn) {
		return func(conn net.Conn) {
			if q, err := readPartRequest(bufio.NewReader(conn)); err == nil {
				_, _ = conn.Write(reply(q))
			}
		}
	}
	fakeLeaf(t, cluster, "cut", answer(func(q tsdb.Query) []byte {
		whole := frame(query.Part{From: q.From, To: q.To, Count: 5, Buckets: []query.BucketCount{{Index: 3, Count: 5}}}.AppendBinary(nil), "OK")
		return whole[:len(whole)-2]
	}))
	fakeLeaf(t, cluster, "countonly", answer(func(q tsdb.Query) []byte {
		return frame(query.Part{From: q.From, To: q.To, Count: 5}.AppendBinary(nil), "OK")
	}))

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
		"nodes 5 ok 3 failed 2\n",
		"partial true\n",
		"node cut error adminproto: querypart reply cut short: EOF\n",
		"node countonly error query: part counts 5 samples but its buckets hold 0\n",
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

// A client that half-closes after its request and reads to EOF — dprocctl
// before queryall kept its connection, nc -N — gets the reply, its blank-line
// terminator, then EOF.
func TestQueryAllHalfCloseReadsToEOF(t *testing.T) {
	_, _, servers := queryCluster(t, 2, 10, nil)
	conn, err := net.Dial("tcp", servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "queryall p99 loadavg last 30s\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("no EOF after the reply %q: %v", raw, err)
	}
	out := string(raw)
	if !strings.HasPrefix(out, "OK\nagg p99\n") || strings.Index(out, "\n\n") != len(out)-2 ||
		!strings.Contains(out, "nodes 2 ok 2 failed 0\npartial false\n") {
		t.Fatalf("half-closed queryall read to EOF: %q, want OK\\n<result>\\n", out)
	}
}

// oldServer answers every connection as a server from before queryall kept
// its connection: one request, the reply with no terminator, then close.
func oldServer(t *testing.T, reply string) (addr string, accepted func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			n++
			mu.Unlock()
			_, _ = bufio.NewReader(conn).ReadString('\n')
			_, _ = io.WriteString(conn, reply)
			_ = conn.Close()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// Against an older server, which closes after an OK queryall reply without
// the blank line, the client takes EOF as the end of the reply, returns it
// whole and keeps nothing; an ERR reply is still an error.
func TestQueryAllAgainstOlderServer(t *testing.T) {
	const result = "agg p99\nvalue 1.5\nsamples 3\nnodes 1 ok 1 failed 0\npartial false\nnode old ok samples=3 in=1µs\n"
	addr, accepted := oldServer(t, "OK\n"+result)
	c := NewClient(addr)
	defer c.Close()
	for i := 1; i <= 2; i++ {
		out, err := c.QueryAll("p99 loadavg last 30s")
		if err != nil || out != result {
			t.Fatalf("queryall %d against an older server: %q, %v; want %q", i, out, err, result)
		}
		c.mu.Lock()
		kept := len(c.idle)
		c.mu.Unlock()
		if kept != 0 {
			t.Fatalf("queryall %d: client kept %d connections to a server that closed them", i, kept)
		}
		if n := accepted(); n != i {
			t.Fatalf("queryall %d: %d connections, want %d", i, n, i)
		}
	}

	errAddr, _ := oldServer(t, "ERR query: no such metric\n")
	if _, err := NewClient(errAddr).QueryAll("p99 nothing last 30s"); err == nil ||
		!strings.Contains(err.Error(), "no such metric") {
		t.Fatalf("ERR reply from an older server: err = %v", err)
	}
}

// wholeResult reports whether out is one whole rendered cluster result over
// nodes targets: the eight lines of the aggregate block, then one line per
// node.
func wholeResult(out string, nodes int) bool {
	lines := strings.Split(out, "\n")
	if len(lines) != 8+nodes+1 || lines[8+nodes] != "" || !strings.HasPrefix(out, "agg ") {
		return false
	}
	for _, line := range lines[8 : 8+nodes] {
		if !strings.HasPrefix(line, "node ") {
			return false
		}
	}
	return true
}

// Registry member IDs come from remote clients unchecked. One holding blank
// lines used to split the rendered result, and on a kept connection would
// end the reply early and leave the rest for the next call. It renders
// quoted: each of two queryalls on one Client returns one whole reply, with
// that node annotated as failed.
func TestQueryAllQuotesHostileNodeName(t *testing.T) {
	cluster, _, servers := queryCluster(t, 3, 10, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close() // dials to it are refused
	const evil = "evil\n\nnode"
	reg := registry.NewClient(cluster.Registry.Addr())
	defer reg.Close()
	if _, err := reg.Join(AdminChannel, evil, dead); err != nil {
		t.Fatal(err)
	}

	c := NewClient(servers[0].Addr())
	defer c.Close()
	for i := 1; i <= 2; i++ {
		out, err := c.QueryAll("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("queryall %d: %v", i, err)
		}
		if !wholeResult(out, 4) || !strings.Contains(out, "nodes 4 ok 3 failed 1\npartial true\n") {
			t.Fatalf("queryall %d is not one whole reply:\n%q", i, out)
		}
		if want := "\nnode " + strconv.Quote(evil) + " error "; !strings.Contains(out, want) {
			t.Fatalf("queryall %d: want %q in:\n%s", i, want, out)
		}
	}
}

// A server parks at most maxParked kept connections. With more clients than
// that each keeping one, the parked set never passes the cap; the
// connections past it close after their reply, so exactly those clients
// dial again on their next call, and every reply is whole.
func TestServerCapsParkedConnections(t *testing.T) {
	_, _, servers := queryCluster(t, 1, 10, nil)
	srv := servers[0]
	parked := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.idle)
	}
	dials := &dialCounter{dials: map[string]int{}}
	clients := make([]*Client, maxParked+8)
	for i := range clients {
		clients[i] = NewClient(srv.Addr())
		clients[i].SetTransport(dials)
		defer clients[i].Close()
	}
	queryAll := func(stage string, i int) {
		t.Helper()
		out, err := clients[i].QueryAll("avg loadavg last 30s")
		if err != nil || !wholeResult(out, 1) || !strings.Contains(out, "partial false\n") {
			t.Fatalf("%s, client %d: %q, %v", stage, i, out, err)
		}
		if n := parked(); n > maxParked {
			t.Fatalf("%s, client %d: %d connections parked, cap %d", stage, i, n, maxParked)
		}
	}
	// The server parks a connection just after its reply. Until the cap,
	// each client's connection is awaited there, so the ones past the cap
	// are exactly the last eight, which the server closes.
	for i := range clients {
		queryAll("first round", i)
		for deadline := time.Now().Add(5 * time.Second); i < maxParked && parked() <= i; {
			if time.Now().After(deadline) {
				t.Fatalf("first round, client %d: %d connections parked, want %d", i, parked(), i+1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if _, n := dials.count(); n != len(clients) {
		t.Fatalf("first round: %d dials, want one per client (%d)", n, len(clients))
	}
	// Each connection turned away moves parked_over_cap by one, just after
	// its reply.
	overParked := func(stage string, want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); overCap(srv, "parked_over_cap") < want && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		if n := overCap(srv, "parked_over_cap"); n != want {
			t.Fatalf("%s: parked_over_cap = %d, want %d", stage, n, want)
		}
	}
	overParked("first round", uint64(len(clients)-maxParked))
	// The eight go first: had a parked client gone first, the slot it
	// leaves while served could go to one of the eight still closing.
	for i := maxParked; i < len(clients); i++ {
		queryAll("second round", i)
	}
	for i := 0; i < maxParked; i++ {
		queryAll("second round", i)
	}
	if _, n := dials.count(); n-len(clients) != len(clients)-maxParked {
		t.Fatalf("second round: %d dials, want one per connection past the cap (%d)", n-len(clients), len(clients)-maxParked)
	}
	overParked("second round", 2*uint64(len(clients)-maxParked))
}
