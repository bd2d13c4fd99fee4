package adminproto

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/faultnet"
	"dproc/internal/leakcheck"
	"dproc/internal/query"
	"dproc/internal/tsdb"
	"dproc/internal/wire"
)

// queryCluster builds an n-node SimCluster on a virtual clock, polls it
// through `steps` one-second ticks so every node accumulates history, and
// starts one admin server per node, configured by its node's Config after
// customize (core.NewSimClusterWith's hook, nil for none) ran on it.
func queryCluster(t testing.TB, n, steps int, customize func(i int, cfg *core.Config)) (*core.SimCluster, *clock.Virtual, []*Server) {
	t.Helper()
	return queryClusterOver(t, n, steps, nil, customize)
}

// queryClusterOver is queryCluster with every host's transport taken from
// transport (core.NewSimClusterWith): each admin server listens and dials
// through its node's.
func queryClusterOver(t testing.TB, n, steps int, transport func(host string) wire.Transport, customize func(i int, cfg *core.Config)) (*core.SimCluster, *clock.Virtual, []*Server) {
	t.Helper()
	vclk := clock.NewVirtual(clock.Epoch)
	cluster, err := core.NewSimClusterWith(n, vclk, 7, 0, transport, customize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	for i := 0; i < steps; i++ {
		vclk.Advance(time.Second)
		if _, _, err := cluster.PollAll(); err != nil {
			t.Fatal(err)
		}
	}
	servers := make([]*Server, n)
	for i, node := range cluster.Nodes {
		srv, err := NewServer(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	})
	return cluster, vclk, servers
}

// resultValue extracts "value <g>" from a rendered cluster result.
func resultValue(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "value "); ok {
			if rest == "none" {
				t.Fatalf("result has no value:\n%s", out)
			}
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad value line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no value line in:\n%s", out)
	return 0
}

// The acceptance guard for the merge semantics: a queryall p99 over a live
// 3-node cluster must equal the quantile of the pooled per-node populations
// (within the histogram's bucket error), with every node contributing its
// own series exactly once.
func TestQueryAllMergedP99MatchesPooledPopulation(t *testing.T) {
	cluster, vclk, servers := queryCluster(t, 3, 20, nil)

	now := vclk.Now()
	to := now.UnixNano() + 1
	from := to - (30 * time.Second).Nanoseconds()

	// The reference population: every node's own loadavg samples in the
	// window, read straight out of the per-node stores.
	var pooled []float64
	var perNode []int
	for _, node := range cluster.Nodes {
		count := 0
		node.DMon().Store().TSDB().Scan(dmon.SeriesKey(node.Name(), "loadavg"), from, to, func(p tsdb.Point) {
			pooled = append(pooled, p.V)
			count++
		})
		perNode = append(perNode, count)
	}
	if len(pooled) == 0 {
		t.Fatal("fixture produced no samples")
	}
	sort.Float64s(pooled)
	idx := int(math.Ceil(0.99*float64(len(pooled)))) - 1
	want := pooled[idx]

	c := NewClient(servers[0].Addr())
	out, err := c.QueryAll("p99 loadavg last 30s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nodes 3 ok 3 failed 0") || !strings.Contains(out, "partial false") {
		t.Fatalf("fan-out not clean:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("samples %d", len(pooled))) {
		t.Fatalf("sample count != pooled %d (per node %v):\n%s", len(pooled), perNode, out)
	}
	got := resultValue(t, out)
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("cluster p99 = %g, pooled p99 = %g (relative error %.3f)", got, want, rel)
	}

	// The same query through the coordinator's cluster/query control file
	// (the pseudo-filesystem face of the tentpole) gives the same answer.
	fsOut, err := c.Query(cluster.Nodes[0].Name(), "")
	_ = fsOut
	if err == nil {
		t.Fatal("empty per-node query accepted") // guard the sugar path still validates
	}
	if err := cluster.Nodes[0].FS().WriteFile("cluster/query", "p99 loadavg last 30s"); err != nil {
		t.Fatal(err)
	}
	fileOut, err := cluster.Nodes[0].FS().ReadFile("cluster/query")
	if err != nil {
		t.Fatal(err)
	}
	if v := resultValue(t, fileOut); math.Abs(v-got) > 1e-9 {
		t.Fatalf("control file p99 %g != verb p99 %g", v, got)
	}
}

// Arithmetic path over the wire: cluster avg equals the pooled mean.
func TestQueryAllAverageMatchesPooledMean(t *testing.T) {
	cluster, vclk, servers := queryCluster(t, 3, 10, nil)
	now := vclk.Now()
	to := now.UnixNano() + 1
	from := to - (30 * time.Second).Nanoseconds()

	sum, count := 0.0, 0
	for _, node := range cluster.Nodes {
		node.DMon().Store().TSDB().Scan(dmon.SeriesKey(node.Name(), "freemem"), from, to, func(p tsdb.Point) {
			sum += p.V
			count++
		})
	}
	if count == 0 {
		t.Fatal("fixture produced no samples")
	}
	out, err := NewClient(servers[1].Addr()).QueryAll("avg freemem last 30s")
	if err != nil {
		t.Fatal(err)
	}
	got := resultValue(t, out)
	want := sum / float64(count)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("cluster avg = %g, pooled mean = %g", got, want)
	}
}

// fabricHosts gives every host its faultnet host on f.
func fabricHosts(f *faultnet.Fabric) func(host string) wire.Transport {
	return func(host string) wire.Transport { return f.Host(host) }
}

// The partial-failure acceptance guard: with every connection of the
// cluster, admin conversations included, routed through a faultnet fabric, killing a node mid-query yields an annotated
// partial result within the per-node timeout — never a hang, never an
// all-or-nothing error — and reviving it heals the next query. Stalls and
// partitions take the same path.
func TestQueryAllPartialUnderFaults(t *testing.T) {
	fabric := faultnet.NewFabric(1)
	cluster, _, servers := queryClusterOver(t, 3, 10, fabricHosts(fabric), func(_ int, cfg *core.Config) {
		cfg.QueryTimeout = 300 * time.Millisecond
	})
	_ = cluster
	c := NewClient(servers[0].Addr())

	assertPartial := func(stage string, wantFailed string) {
		t.Helper()
		start := time.Now()
		out, err := c.QueryAll("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: queryall errored instead of degrading: %v", stage, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: fan-out took %v with a 300ms per-node timeout", stage, elapsed)
		}
		if !strings.Contains(out, "partial true") || !strings.Contains(out, "nodes 3 ok 2 failed 1") {
			t.Fatalf("%s: want an annotated 2/3 partial, got:\n%s", stage, out)
		}
		if !strings.Contains(out, "node "+wantFailed+" error") {
			t.Fatalf("%s: failed node %s not annotated:\n%s", stage, wantFailed, out)
		}
		resultValue(t, out) // the survivors still merge to a value
	}

	// A whole query first, so the coordinator's kept querypart connections
	// (and each leaf's goroutine parked on one) are in both goroutine counts:
	// what the check below catches is a failed fetch leaving something
	// behind, not the one kept connection per peer that healthy ones leave.
	if out, err := c.QueryAll("p99 loadavg last 30s"); err != nil || !strings.Contains(out, "partial false") {
		t.Fatalf("warm-up query: %v\n%s", err, out)
	}
	before := runtime.NumGoroutine()

	fabric.Crash("node2")
	assertPartial("crash", "node2")
	fabric.Allow("node2")

	fabric.StallWrites("node1", true)
	assertPartial("stall", "node1")
	fabric.StallWrites("node1", false)

	fabric.SetGroup("node0", "a")
	fabric.SetGroup("node1", "a")
	fabric.SetGroup("node2", "b")
	fabric.Partition("a", "b")
	assertPartial("partition", "node2")
	fabric.Heal()

	// Healed cluster answers in full again.
	out, err := c.QueryAll("p99 loadavg last 30s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nodes 3 ok 3 failed 0") || !strings.Contains(out, "partial false") {
		t.Fatalf("cluster did not heal:\n%s", out)
	}

	// No fan-out goroutines left behind by the failed fetches.
	leakcheck.Goroutines(t, "after the fault sequence", 0, before)
}

// querypart answers absolute windows only: window normalization is the
// coordinator's job, and a leaf re-anchoring "last 5m" on its own clock
// would answer a different question than its peers. The binary query has
// no relative window to send — a query with only Last set encodes an empty
// window, which the leaf refuses like any other — and the text request of
// an older coordinator gets one ERR line.
func TestQueryPartRejectsRelativeWindows(t *testing.T) {
	_, _, servers := queryCluster(t, 1, 3, nil)
	c := NewClient(servers[0].Addr())
	if _, err := c.roundTrip("querypart p99 loadavg last 30s\n", nil); err == nil ||
		!strings.Contains(err.Error(), "usage: querypart <n>") {
		t.Fatalf("text querypart: err = %v", err)
	}
	relative := tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", Last: 30 * time.Second}
	if _, err := c.QueryPart(relative); err == nil || !strings.Contains(err.Error(), "window [0, 0) is empty") {
		t.Fatalf("relative querypart: err = %v", err)
	}
	q := tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 1, To: clock.Epoch.Add(time.Hour).UnixNano()}
	part, err := c.QueryPart(q)
	if err != nil {
		t.Fatal(err)
	}
	if part.Count == 0 || part.Buckets == nil {
		t.Fatalf("absolute querypart returned no data: %+v", part)
	}
}

// The server used to arm one deadline for the whole connection, so a
// request or response spread over longer than the timeout died even though
// the peer was alive. Now each phase gets a fresh deadline: a request
// dribbling in slower than the timeout in total — but with every gap under
// it — must succeed.
func TestServerToleratesSlowDribbleRequest(t *testing.T) {
	_, _, servers := queryCluster(t, 1, 2, func(_ int, cfg *core.Config) {
		cfg.AdminTimeout = 250 * time.Millisecond
	})
	conn, err := net.Dial("tcp", servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Total transmission time 400ms > the 250ms timeout; each gap 100ms.
	for _, chunk := range []string{"sta", "tu", "s", "\n"} {
		if _, err := conn.Write([]byte(chunk)); err != nil {
			t.Fatalf("mid-dribble write: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil || !strings.HasPrefix(string(buf[:n]), "OK") {
		t.Fatalf("dribbled status request: read %q, err %v", buf[:n], err)
	}

	// A genuinely stalled request still dies at the phase timeout.
	conn2, err := net.Dial("tcp", servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("stat")); err != nil {
		t.Fatal(err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn2.Read(buf); err == nil {
		t.Fatal("server answered a stalled half-request")
	}
}

// dribbler serves every connection the given reply in chunks 100 ms apart,
// after reading its request.
func dribbler(t *testing.T, chunks ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				buf := make([]byte, 256)
				_, _ = conn.Read(buf)
				for _, chunk := range chunks {
					if _, err := conn.Write([]byte(chunk)); err != nil {
						return
					}
					time.Sleep(100 * time.Millisecond)
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// The client-side mirror: a response dribbling in slower than the client
// timeout in total succeeds as long as no single gap exceeds it.
func TestClientToleratesSlowDribbleResponse(t *testing.T) {
	c := NewClient(dribbler(t, "OK\n", "dribble ", "dribble ", "done\n"))
	c.SetTimeout(250 * time.Millisecond) // total response time 400ms
	out, err := c.Status()
	if err != nil {
		t.Fatalf("dribbled response: %v", err)
	}
	if !strings.Contains(out, "done") {
		t.Fatalf("partial response %q", out)
	}
}

// The coordinator's per-node budget is the context's deadline, and it caps
// the sum of a part's phases: a leaf dribbling its part with every gap
// under the client's phase timeout is whole without a deadline, and cut
// off at one shorter than the dribble.
func TestQueryPartContextCapsTheSumOfPhases(t *testing.T) {
	q := normalized(t, "avg loadavg last 30s", clock.Epoch)
	reply := string(frame(query.Part{From: q.From, To: q.To, Count: 3, Value: 4}.AppendBinary(nil), "OK"))
	addr := dribbler(t, reply[:2], reply[2:6], reply[6:9], reply[9:12], reply[12:])
	c := NewClient(addr)
	defer c.Close()
	c.SetTimeout(250 * time.Millisecond) // the whole part takes 400 ms
	if p, err := c.QueryPartContext(context.Background(), q); err != nil || p.Count != 3 {
		t.Fatalf("dribbled part without a deadline: %+v, %v", p, err)
	}

	c2 := NewClient(addr)
	defer c2.Close()
	c2.SetTimeout(250 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c2.QueryPartContext(ctx, q); err == nil {
		t.Fatal("the context's deadline did not cut the dribble off")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-capped part took %v", elapsed)
	}
}

// A node has one transport, and every socket of a SimCluster comes from
// one: with each host a fabric host, the fabric sees the registry's
// listener, both channels' listeners per node and each admin server's
// (1 + 2n + n), and after formation and one queryall every connection
// dialed through it was accepted through it.
func TestSimClusterSocketsRideOneTransport(t *testing.T) {
	const n = 3
	fabric := faultnet.NewFabric(5)
	_, _, servers := queryClusterOver(t, n, 5, fabricHosts(fabric), nil)
	res, err := servers[0].QueryAllResult("p99 loadavg last 30s")
	if err != nil || res.Partial || res.OK != n {
		t.Fatalf("queryall: %v\n%s", err, res.Render())
	}
	if s := fabric.Stats(); s.Listens != 1+2*n+n {
		t.Fatalf("%d listeners opened through the fabric, want %d (registry, 2 channels and an admin server per node)", s.Listens, 1+2*n+n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s := fabric.Stats()
		dialed := s.DialsAttempted - s.DialsRefused
		if s.Accepts == dialed && dialed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections accepted through the fabric, %d dialed through it", s.Accepts, dialed)
		}
	}
}

// A cluster query reads the admin roster its coordinator cached, and asks
// the registry again only when the roster is one ReconnectInterval old on
// the I/O clock, or when a part of the last fan-out failed. Reconnect is
// off, so the coordinator's admin server is the only thing that looks
// anything up, and the I/O clock moves only when the test steps it.
func TestQueryAllLookupCounts(t *testing.T) {
	io := clock.NewVirtual(time.Now()) // socket deadlines stay near wall time
	_, _, servers := queryClusterOver(t, 4, 5, func(string) wire.Transport { return ioClocked{clk: io} },
		func(_ int, cfg *core.Config) { cfg.Channel.DisableReconnect = true })
	coord := servers[0]
	every := coord.node.Config().Channel.ReconnectInterval
	base := coord.node.Registry().Stats().Lookups
	lookups := func() uint64 { return coord.node.Registry().Stats().Lookups - base }
	query := func(stage, want string) {
		t.Helper()
		res, err := coord.QueryAllResult("p99 loadavg last 30s")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := fmt.Sprintf("nodes %d ok %d failed %d", len(res.Nodes), res.OK, res.Failed); got != want {
			t.Fatalf("%s: %s, want %s\n%s", stage, got, want, res.Render())
		}
	}

	for i := 0; i < 10; i++ {
		query(fmt.Sprintf("queryall %d", i+1), "nodes 4 ok 4 failed 0")
	}
	if n := lookups(); n != 1 {
		t.Fatalf("ten queryalls inside one interval looked the roster up %d times, want 1", n)
	}
	io.Advance(every - 1)
	query("just inside the interval", "nodes 4 ok 4 failed 0")
	if n := lookups(); n != 1 {
		t.Fatalf("a queryall inside the interval looked up: %d lookups, want 1", n)
	}
	io.Advance(1)
	query("one interval on", "nodes 4 ok 4 failed 0")
	if n := lookups(); n != 2 {
		t.Fatalf("a queryall one interval on: %d lookups, want 2", n)
	}

	// node3 leaves: the cached roster still names it, so its part fails,
	// and that failure makes the next query look the roster up again.
	if err := servers[3].Close(); err != nil {
		t.Fatal(err)
	}
	query("node3 gone, roster cached", "nodes 4 ok 3 failed 1")
	if n := lookups(); n != 2 {
		t.Fatalf("the query with a failed part looked up: %d lookups, want 2", n)
	}
	query("after the failed part", "nodes 3 ok 3 failed 0")
	if n := lookups(); n != 3 {
		t.Fatalf("the query after a failed part: %d lookups, want 3", n)
	}
}

// A registry outage does not shrink a cluster answer: a coordinator that
// has a roster keeps answering for every node on it, without waiting on the
// registry client's retries. One that never got a roster answers for itself,
// and says so: the result is partial and names the registry's error. The
// long interval keeps the first roster fresh however slow the machine.
func TestQueryAllSurvivesRegistryOutage(t *testing.T) {
	const q = "p99 loadavg last 30s"
	cluster, _, servers := queryCluster(t, 3, 5, func(_ int, cfg *core.Config) {
		cfg.Channel.ReconnectInterval = time.Minute
	})
	if res, err := servers[0].QueryAllResult(q); err != nil || res.OK != 3 || res.Partial {
		t.Fatalf("before the outage: %v\n%s", err, res.Render())
	}
	cluster.Registry.Close()

	reg := servers[0].node.Registry()
	before := reg.Stats().Lookups
	start := time.Now()
	res, err := servers[0].QueryAllResult(q)
	elapsed := time.Since(start)
	if err != nil || res.OK != 3 || res.Failed != 0 || res.Partial {
		t.Fatalf("during the outage: %v\n%s", err, res.Render())
	}
	if n := reg.Stats().Lookups - before; n != 0 {
		t.Fatalf("the query during the outage looked the roster up %d times (took %v)", n, elapsed)
	}

	// node1 has never coordinated a query, so it has no roster.
	out, err := servers[1].QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nodes 1 ok 1 failed 0\npartial true\n") ||
		!strings.Contains(out, "\nroster error registry: cannot reach server at ") {
		t.Fatalf("a coordinator without a roster:\n%s", out)
	}
	reg1 := servers[1].node.Registry()
	before = reg1.Stats().Lookups
	if res, err := servers[1].QueryAllResult(q); err != nil || res.OK != 1 || !res.Partial {
		t.Fatalf("the second query without a roster: %v\n%s", err, res.Render())
	}
	if n := reg1.Stats().Lookups - before; n != 0 {
		t.Fatalf("a failed lookup was retried within its interval: %d lookups", n)
	}
}

// A scrape says what a queryall says: the exporter of a coordinator with a
// roster counts every node and is whole, and one that never got a roster —
// the registry closed before its first scrape — answers for itself and
// exports partial 1, not a whole cluster of one.
func TestClusterExportWithoutRosterIsPartial(t *testing.T) {
	cluster, _, servers := queryCluster(t, 3, 5, nil)
	scrape := func(srv *Server) string {
		var out strings.Builder
		srv.ClusterExporter([]string{"loadavg"}, 30*time.Second).Append(&out)
		return out.String()
	}
	if out := scrape(servers[0]); !strings.Contains(out, "dproc_cluster_query_nodes{status=\"ok\"} 3\n") ||
		!strings.Contains(out, "\ndproc_cluster_query_partial 0\n") {
		t.Fatalf("a coordinator with a roster:\n%s", out)
	}
	cluster.Registry.Close()
	if out := scrape(servers[1]); !strings.Contains(out, "dproc_cluster_query_nodes{status=\"ok\"} 1\n") ||
		!strings.Contains(out, "\ndproc_cluster_query_partial 1\n") {
		t.Fatalf("a coordinator without a roster:\n%s", out)
	}
}
