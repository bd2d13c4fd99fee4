package adminproto

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/query"
	"dproc/internal/registry"
	"dproc/internal/tsdb"
	"dproc/internal/wire"
)

// writeCounts counts writes and bytes per connection end, keyed
// "request <addr>" for connections dialed to addr and "reply <addr>" for
// connections accepted on the listener at addr.
type writeCounts struct {
	mu            sync.Mutex
	writes, bytes map[string]int
}

func (w *writeCounts) add(key string, n int) {
	w.mu.Lock()
	w.writes[key]++
	w.bytes[key] += n
	w.mu.Unlock()
}

func (w *writeCounts) reset() {
	w.mu.Lock()
	w.writes, w.bytes = map[string]int{}, map[string]int{}
	w.mu.Unlock()
}

func (w *writeCounts) get(key string) (writes, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes[key], w.bytes[key]
}

// countingTransport is plain TCP whose connections count their writes
// into one writeCounts.
type countingTransport struct{ counts *writeCounts }

func (c countingTransport) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, counts: c.counts}, nil
}

func (c countingTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, key: "request " + address, counts: c.counts}, nil
}

type countingListener struct {
	net.Listener
	counts *writeCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, key: "reply " + l.Addr().String(), counts: l.counts}, nil
}

type countingConn struct {
	net.Conn
	key    string
	counts *writeCounts
}

func (c countingConn) Write(b []byte) (int, error) {
	c.counts.add(c.key, len(b))
	return c.Conn.Write(b)
}

// partBound is the most bytes a 300-sample p99 part of history-rw's loadavg
// shape takes on the wire, its "OK <n>" line included: the three peers'
// parts below (131–136 buckets) measured 293–303 B. As text the same parts
// took 856–886 B (851 B for node0's 130 buckets).
const partBound = 320

// appendLoadShape gives each node 300 one-second samples of history-rw's
// loadavg shape (0.25 + 7.75·u², skewed) under the metric "loadshape",
// seeded per node, starting at from.
func appendLoadShape(cluster *core.SimCluster, from int64) {
	for i, node := range cluster.Nodes {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		series := dmon.SeriesKey(node.Name(), "loadshape")
		for k := int64(0); k < 300; k++ {
			u := rng.Float64()
			node.DMon().Store().TSDB().Append(series, from+k*int64(time.Second), 0.25+7.75*u*u)
		}
	}
}

// TestQueryPartCounts is DESIGN §12's querypart wire cost as a gate, counted
// through each node's transport on a 4-node cluster: after a warm-up
// queryall has dialed the kept connections, one queryall costs each peer
// exactly one write from the coordinator (the request line and the binary
// query) and one write back (the status line and the binary part), and a
// 300-sample p99 part of history-rw's loadavg shape arrives in at most
// partBound bytes.
func TestQueryPartCounts(t *testing.T) {
	counts := &writeCounts{}
	counts.reset()
	cluster, _, servers := queryClusterOver(t, 4, 3, func(string) wire.Transport {
		return countingTransport{counts: counts}
	}, nil)
	from := clock.Epoch.Add(time.Hour).UnixNano()
	appendLoadShape(cluster, from)
	text := fmt.Sprintf("p99 loadshape from %dns to %dns", from, from+300*int64(time.Second))
	if res, err := servers[0].QueryAllResult(text); err != nil || res.Partial || res.Count != 1200 {
		t.Fatalf("warm-up queryall: %v\n%s", err, res.Render())
	}
	counts.reset()
	res, err := servers[0].QueryAllResult(text)
	if err != nil || res.Partial || res.Count != 1200 {
		t.Fatalf("queryall: %v\n%s", err, res.Render())
	}
	for _, peer := range servers[1:] {
		name, addr := peer.node.Name(), peer.Addr()
		if n, _ := counts.get("request " + addr); n != 1 {
			t.Errorf("%s: the coordinator's querypart took %d writes, want 1", name, n)
		}
		n, size := counts.get("reply " + addr)
		if n != 1 {
			t.Errorf("%s: the leaf's reply took %d writes, want 1", name, n)
		}
		if size > partBound {
			t.Errorf("%s: a 300-sample p99 part took %d bytes, want at most %d", name, size, partBound)
		}
	}
	if n, _ := counts.get("request " + servers[0].Addr()); n != 0 {
		t.Errorf("the coordinator wrote %d times to itself, want 0", n)
	}
}

// fakeLeaf registers a leaf on the admin channel of cluster that serves
// each connection with serve, and returns its address.
func fakeLeaf(t *testing.T, cluster *core.SimCluster, name string, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	reg := registry.NewClient(cluster.Registry.Addr())
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Join(AdminChannel, name, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String()
}

// Version skew, coordinator side: a leaf of the text protocol fails its
// part at once and keeps no connection — whether it refuses the binary
// request as a text leaf does (its usage error, then close) or answers it
// with a text part on a connection it keeps open. The answer is partial and
// names both, well inside one per-node timeout.
func TestNewCoordinatorAgainstTextLeaf(t *testing.T) {
	const budget = 2 * time.Second
	cluster, _, servers := queryCluster(t, 2, 10, func(_ int, cfg *core.Config) {
		cfg.QueryTimeout = budget
	})
	refusing := fakeLeaf(t, cluster, "refusing", func(conn net.Conn) {
		_, _ = bufio.NewReader(conn).ReadString('\n')
		_, _ = io.WriteString(conn, "ERR usage: querypart <agg> <metric> from <t> to <t>\n")
	})
	texting := fakeLeaf(t, cluster, "texting", func(conn net.Conn) {
		r := bufio.NewReader(conn)
		for {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if _, err := io.WriteString(conn, "OK\nfrom 1ns\nto 2ns\ncount 0\nvalue 0\n\n"); err != nil {
				return
			}
		}
	})
	start := time.Now()
	out, err := servers[0].QueryAll("p99 loadavg last 30s")
	if elapsed := time.Since(start); elapsed >= budget {
		t.Fatalf("queryall took %v, past the %v per-node timeout", elapsed, budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nodes 4 ok 2 failed 2\npartial true\n",
		"\nnode refusing error adminproto: usage: querypart <agg> <metric> from <t> to <t>\n",
		"\nnode texting error adminproto: querypart reply status \"OK\\n\" is not OK <n>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("want %q in:\n%s", want, out)
		}
	}
	for _, addr := range []string{refusing, texting} {
		c := servers[0].clientFor(addr)
		c.mu.Lock()
		kept := len(c.idle)
		c.mu.Unlock()
		if kept != 0 {
			t.Fatalf("the coordinator kept %d connections to the text leaf at %s", kept, addr)
		}
	}
}

// Version skew, leaf side: the text querypart request of an older
// coordinator gets exactly one ERR line, then EOF. A coordinator of the
// text protocol (here a Fetch that speaks it) so answers partial, naming
// the new leaf, well inside one per-node timeout.
func TestTextCoordinatorAgainstNewLeaf(t *testing.T) {
	const budget = 2 * time.Second
	_, vclk, servers := queryCluster(t, 1, 10, nil)
	leaf := servers[0]
	nq := normalized(t, "p99 loadavg last 30s", vclk.Now())
	textFetch := func(ctx context.Context, target query.Target, q tsdb.Query) (query.Part, error) {
		conn, err := net.Dial("tcp", target.Addr)
		if err != nil {
			return query.Part{}, err
		}
		defer conn.Close()
		deadline, _ := ctx.Deadline()
		_ = conn.SetDeadline(deadline)
		if _, err := io.WriteString(conn, "querypart "+q.String()+"\n"); err != nil {
			return query.Part{}, err
		}
		reply, err := io.ReadAll(conn)
		if err != nil {
			return query.Part{}, fmt.Errorf("no EOF after %q: %w", reply, err)
		}
		if msg, ok := strings.CutPrefix(string(reply), "ERR "); ok && strings.Count(msg, "\n") == 1 && strings.HasSuffix(msg, "\n") {
			return query.Part{}, fmt.Errorf("%s", strings.TrimSpace(msg))
		}
		return query.Part{}, fmt.Errorf("reply %q is not one ERR line", reply)
	}
	start := time.Now()
	res, err := query.Run(context.Background(), []query.Target{{Node: "new", Addr: leaf.Addr()}}, nq, vclk.Now(), textFetch, query.Options{Timeout: budget})
	if elapsed := time.Since(start); elapsed >= budget {
		t.Fatalf("fan-out took %v, past the %v per-node timeout", elapsed, budget)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Failed != 1 || !strings.Contains(res.Nodes[0].Err, "usage: querypart <n> then n bytes of binary query") {
		t.Fatalf("text coordinator against a new leaf:\n%s", res.Render())
	}
}

// A part larger than the client's 4 KiB reader — every bucket of the layout,
// each count taking two bytes — is read whole into the connection's scratch
// buffer, twice on one kept connection.
func TestQueryPartLargerThanTheReader(t *testing.T) {
	big := query.Part{From: 1, To: 2, Buckets: make([]query.BucketCount, 1888)}
	for i := range big.Buckets {
		big.Buckets[i] = query.BucketCount{Index: i, Count: 1000}
		big.Count += 1000
	}
	reply := frame(big.AppendBinary(nil), "OK")
	if len(reply) <= maxRequestLine {
		t.Fatalf("a %d-byte reply fits the reader", len(reply))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			if _, err := readPartRequest(r); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	c := NewClient(ln.Addr().String())
	defer c.Close()
	for i := 1; i <= 2; i++ {
		p, err := c.QueryPart(tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 1, To: 2})
		if err != nil || p.Count != big.Count || len(p.Buckets) != len(big.Buckets) || p.Buckets[1887] != big.Buckets[1887] {
			t.Fatalf("call %d: a %d-byte part read as %d buckets counting %d, %v", i, len(reply), len(p.Buckets), p.Count, err)
		}
		c.mu.Lock()
		kept := len(c.idle)
		c.mu.Unlock()
		if kept != 1 {
			t.Fatalf("call %d: %d connections kept, want 1", i, kept)
		}
	}
}
