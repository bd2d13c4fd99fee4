package adminproto

import (
	"net"
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/metrics"
	"dproc/internal/simres"
)

func newServer(t *testing.T) (*Server, *Client, *simres.Host) {
	t.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	node, err := core.NewNode(core.Config{Name: "alan", Clock: clk, Source: host})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, NewClient(srv.Addr()), host
}

func TestListRootAndNode(t *testing.T) {
	_, c, _ := newServer(t)
	entries, err := c.List("cluster")
	if err != nil {
		t.Fatal(err)
	}
	// cluster/ holds the per-node trees plus the cluster-wide query control
	// file the admin server installs.
	if len(entries) != 2 || entries[0] != "alan/" || entries[1] != "query" {
		t.Fatalf("entries = %v", entries)
	}
	files, err := c.List("cluster/alan")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != int(metrics.NumIDs)+6 { // metrics + control + config + health + stats + history/ + query
		t.Fatalf("files = %d, want %d", len(files), int(metrics.NumIDs)+6)
	}
}

func TestStatsVerb(t *testing.T) {
	_, c, _ := newServer(t)
	out, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"node alan",
		"obs filter_run",
		"obs prop_delay",
		"obs queue_residency",
		"p95_ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats missing %q:\n%s", want, out)
		}
	}
	// The same report backs the cluster/<node>/stats pseudo-file.
	file, err := c.Cat("cluster/alan/stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(file, "obs filter_run") {
		t.Fatalf("stats pseudo-file = %q", file)
	}
}

func TestVerbTableCoversDispatch(t *testing.T) {
	names := map[string]bool{}
	for _, v := range Verbs() {
		if v.Name == "" || v.run == nil {
			t.Fatalf("verb %+v incomplete", v)
		}
		if names[v.Name] {
			t.Fatalf("duplicate verb %q", v.Name)
		}
		names[v.Name] = true
		if got, ok := LookupVerb(v.Name); !ok || got.Name != v.Name {
			t.Fatalf("LookupVerb(%q) = %v, %v", v.Name, got, ok)
		}
	}
	for _, required := range []string{"ls", "cat", "tree", "status", "stats", "write", "query", "flush"} {
		if !names[required] {
			t.Fatalf("verb table missing %q", required)
		}
	}
	if _, ok := LookupVerb("frobnicate"); ok {
		t.Fatal("LookupVerb accepted an unknown verb")
	}
}

func TestCatMetricFile(t *testing.T) {
	_, c, host := newServer(t)
	host.AddTask(3)
	out, err := c.Cat("cluster/alan/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	if out != "3.00\n" {
		t.Fatalf("loadavg = %q", out)
	}
}

func TestCatMissingFileErrs(t *testing.T) {
	_, c, _ := newServer(t)
	if _, err := c.Cat("cluster/alan/nope"); err == nil {
		t.Fatal("missing file cat succeeded")
	}
}

func TestTree(t *testing.T) {
	_, c, _ := newServer(t)
	tree, err := c.Tree("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree, "alan/") || !strings.Contains(tree, "loadavg") {
		t.Fatalf("tree = %q", tree)
	}
}

func TestStatus(t *testing.T) {
	_, c, _ := newServer(t)
	out, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "node alan") || !strings.Contains(out, "CPU_MON") {
		t.Fatalf("status = %q", out)
	}
}

func TestWriteControlFile(t *testing.T) {
	srv, c, _ := newServer(t)
	if err := c.Write("cluster/alan/control", "period cpu 5"); err != nil {
		t.Fatal(err)
	}
	// The setting reached d-mon through the pseudo-filesystem.
	node := srv.node
	if node.DMon().Period(metrics.CPU) != 5*time.Second {
		t.Fatal("control write not applied")
	}
}

func TestWriteMultilineFilterBody(t *testing.T) {
	srv, c, _ := newServer(t)
	filter := "filter all\n{ int i = 0; if (input[LOADAVG].value > 2) { output[i] = input[LOADAVG]; } }"
	if err := c.Write("cluster/alan/control", filter); err != nil {
		t.Fatal(err)
	}
	if !srv.node.DMon().HasFilter() {
		t.Fatal("filter deployment via admin protocol failed")
	}
}

func TestWriteBadCommandSurfacesError(t *testing.T) {
	_, c, _ := newServer(t)
	err := c.Write("cluster/alan/control", "explode now")
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteReadOnlyFileErrs(t *testing.T) {
	_, c, _ := newServer(t)
	if err := c.Write("cluster/alan/loadavg", "1.0"); err == nil {
		t.Fatal("write to read-only metric file succeeded")
	}
}

func TestQueryVerb(t *testing.T) {
	srv, c, _ := newServer(t)
	for i := 1; i <= 20; i++ {
		ts := clock.Epoch.Add(time.Duration(i) * time.Second)
		srv.node.DMon().Store().Update(&metrics.Report{
			Node: "grace", Seq: uint64(i), Time: ts,
			Samples: []metrics.Sample{{ID: metrics.LOADAVG, Value: float64(i), Time: ts}},
		})
	}
	srv.node.Refresh()
	out, err := c.Query("grace", "avg loadavg last 10s")
	if err != nil {
		t.Fatal(err)
	}
	// Samples 11..20 → avg 15.5.
	if !strings.Contains(out, "value 15.5\n") || !strings.Contains(out, "samples 10\n") {
		t.Fatalf("query result = %q", out)
	}
	if _, err := c.Query("ghost", "avg loadavg last 10s"); err == nil {
		t.Fatal("query against unknown node succeeded")
	}
	if _, err := c.Query("grace", "gibberish loadavg"); err == nil {
		t.Fatal("malformed query succeeded")
	}
}

func TestUnknownCommand(t *testing.T) {
	srv, _, _ := newServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("frobnicate\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "ERR unknown command") {
		t.Fatalf("reply = %q", buf[:n])
	}
}

func TestEmptyCommand(t *testing.T) {
	srv, _, _ := newServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "ERR empty") {
		t.Fatalf("reply = %q", buf[:n])
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	srv, c, _ := newServer(t)
	srv.Close()
	if _, err := c.Status(); err == nil {
		t.Fatal("request to closed server succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _, _ := newServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, c, _ := newServer(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := c.Cat("cluster/alan/loadavg")
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlushVerbMemoryOnly(t *testing.T) {
	_, c, _ := newServer(t)
	out, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "memory-only") {
		t.Fatalf("flush on memory-only node = %q", out)
	}
}

func TestFlushVerbDurableNode(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	node, err := core.NewNode(core.Config{
		Name: "alan", Clock: clk, Source: host, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(srv.Addr())

	out, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flushed") {
		t.Fatalf("flush on durable node = %q", out)
	}
	// The persistence counters ride the unified stats surface: the admin
	// verb and the cluster/<node>/stats pseudo-file both carry them.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tsdb wal_appends",
		"tsdb wal_writes",
		"tsdb wal_errors",
		"tsdb recovery_records_replayed",
		"tsdb recovery_records_truncated",
	} {
		if !strings.Contains(stats, want) {
			t.Fatalf("durable node stats missing %q:\n%s", want, stats)
		}
	}
	file, err := c.Cat("cluster/alan/stats")
	if err != nil || !strings.Contains(file, "tsdb wal_appends") {
		t.Fatalf("stats pseudo-file missing tsdb counters: %v", err)
	}
	// A memory-only node reports its history footprint and no persistence
	// counters.
	_, cMem, _ := newServer(t)
	memStats, err := cMem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(memStats, "tsdb tier_bytes ") || strings.Contains(memStats, "tsdb wal_") {
		t.Fatalf("memory-only node stats:\n%s", memStats)
	}
}
