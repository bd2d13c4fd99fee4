package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/simres"
)

func TestNodeRequiresName(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("nameless node accepted")
	}
}

func TestStandaloneNodeLocalTree(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	host.AddTask(2)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: host})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Every metric has a pseudo-file under cluster/alan.
	entries, err := n.FS().ReadDir("cluster/alan")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != int(metrics.NumIDs)+6 { // +control +config +health +stats +history/ +query
		t.Fatalf("entries = %d, want %d", len(entries), int(metrics.NumIDs)+6)
	}
	got, err := n.FS().ReadFile("cluster/alan/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	if got != "2.00\n" {
		t.Fatalf("loadavg = %q", got)
	}
	// Live reads: values change with the host.
	host.AddTask(1)
	got, _ = n.FS().ReadFile("cluster/alan/loadavg")
	if got != "3.00\n" {
		t.Fatalf("loadavg after load change = %q", got)
	}
}

func TestLocalControlFileAppliesSettings(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: host})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.FS().WriteFile("cluster/alan/control", "period cpu 5"); err != nil {
		t.Fatal(err)
	}
	if n.DMon().Period(metrics.CPU) != 5*time.Second {
		t.Fatal("control write did not change period")
	}
	if err := n.FS().WriteFile("cluster/alan/control", "gibberish"); err == nil {
		t.Fatal("bad control text accepted through control file")
	}
}

func TestConfigFileRoundTripsControlWrites(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: host})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Fresh node: empty config (everything at defaults).
	got, err := n.FS().ReadFile("cluster/alan/config")
	if err != nil || got != "" {
		t.Fatalf("fresh config = (%q, %v)", got, err)
	}
	ctl := "period cpu 2\nthreshold loadavg above 0.8\ndiff mem 10"
	if err := n.FS().WriteFile("cluster/alan/control", ctl); err != nil {
		t.Fatal(err)
	}
	got, err = n.FS().ReadFile("cluster/alan/config")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"period cpu 2", "threshold loadavg above 0.8", "diff mem 10"} {
		if !strings.Contains(got, want) {
			t.Fatalf("config %q missing %q", got, want)
		}
	}
	// The rendered config must itself be valid control text.
	if err := n.FS().WriteFile("cluster/alan/control", got); err != nil {
		t.Fatalf("rendered config not re-appliable: %v", err)
	}
	// Filters render as comments.
	if err := n.FS().WriteFile("cluster/alan/control", "filter all\noutput[0] = input[LOADAVG];"); err != nil {
		t.Fatal(err)
	}
	got, _ = n.FS().ReadFile("cluster/alan/config")
	if !strings.Contains(got, "# filter all") {
		t.Fatalf("config missing filter note: %q", got)
	}
}

func TestClusterSurvivesNodeCrash(t *testing.T) {
	// Failure injection: one node vanishes mid-run; the survivors keep
	// monitoring each other and prune the dead peer.
	c, err := NewSimCluster(3, clock.NewReal(), 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Hosts[1].SetNoise(0)
	c.Hosts[1].AddTask(1)
	if _, _, err := c.PollAll(); err != nil {
		t.Fatal(err)
	}
	c.DrainAll(50 * time.Millisecond)

	// node2 "crashes": its channels close abruptly (Close also deregisters,
	// which a real crash would not do — so also verify pruning by submit).
	if err := c.Nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	survivors := c.Nodes[:2]
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, n := range survivors {
			if _, _, err := n.PollOnce(); err != nil {
				t.Fatal(err)
			}
			for _, peer := range n.MonitoringChannel().Peers() {
				if peer == "node2" {
					ok = false
				}
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead peer never pruned from the mesh")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Survivors still exchange data (poll them directly; the dead node's
	// PollOnce would error).
	c.Hosts[1].AddTask(1) // load 2 now
	time.Sleep(1100 * time.Millisecond)
	for _, n := range survivors {
		if _, _, err := n.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		if v, ok := survivors[0].DMon().Store().Value("node1", metrics.LOADAVG); ok && v == 2 {
			break
		}
		survivors[0].DMon().PollChannels()
		if time.Now().After(deadline) {
			t.Fatal("survivors stopped exchanging data after the crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSimClusterDistributesMonitoringData(t *testing.T) {
	c, err := NewSimCluster(3, clock.NewReal(), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Hosts[0].SetNoise(0)
	c.Hosts[0].AddTask(2)

	if _, _, err := c.PollAll(); err != nil {
		t.Fatal(err)
	}
	c.DrainAll(50 * time.Millisecond)

	// node1 sees node0's loadavg through its /proc tree.
	got, err := c.Nodes[1].FS().ReadFile("cluster/node0/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	if got != "2.00\n" {
		t.Fatalf("remote loadavg = %q", got)
	}
	// The paper's Figure 1 hierarchy: each node's cluster dir lists all
	// nodes it has heard from, plus itself.
	entries, err := c.Nodes[1].FS().ReadDir("cluster")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name] = true
	}
	for _, want := range []string{"node0", "node1", "node2"} {
		if !names[want] {
			t.Fatalf("cluster dir = %v, missing %s", names, want)
		}
	}
	// Status file reports receipt.
	status, err := c.Nodes[1].FS().ReadFile("cluster/node0/status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "reports 1") {
		t.Fatalf("status = %q", status)
	}
}

func TestRemoteHistoryFiles(t *testing.T) {
	c, err := NewSimCluster(2, clock.NewReal(), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Hosts[0].SetNoise(0)
	c.Hosts[0].AddTask(1)
	// Three poll rounds → three history entries for every metric.
	for i := 0; i < 3; i++ {
		if _, _, err := c.PollAll(); err != nil {
			t.Fatal(err)
		}
		c.DrainAll(50 * time.Millisecond)
		time.Sleep(1100 * time.Millisecond) // allow the 1s periods to re-arm
	}
	content, err := c.Nodes[1].FS().ReadFile("cluster/node0/history/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(content), "\n")
	if len(lines) != 3 {
		t.Fatalf("history lines = %d (%q)", len(lines), content)
	}
	for _, line := range lines {
		if !strings.HasSuffix(line, " 1") {
			t.Fatalf("history line %q, want value 1", line)
		}
	}
}

func TestRemoteControlFileDeploysOverChannel(t *testing.T) {
	c, err := NewSimCluster(2, clock.NewReal(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Write to node1's control file *as seen from node0*: the command must
	// travel the control channel and change node1's configuration.
	if _, _, err := c.PollAll(); err != nil {
		t.Fatal(err)
	}
	c.DrainAll(50 * time.Millisecond)
	if err := c.Nodes[0].FS().WriteFile("cluster/node1/control", "period disk 8"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.Nodes[1].DMon().Period(metrics.Disk) != 8*time.Second {
		if time.Now().After(deadline) {
			t.Fatal("remote control write never applied")
		}
		c.Nodes[1].DMon().PollChannels()
		time.Sleep(2 * time.Millisecond)
	}
	// Sender unchanged.
	if c.Nodes[0].DMon().Period(metrics.Disk) != time.Second {
		t.Fatal("control write applied locally instead of remotely")
	}
}

func TestReadingRemoteMetricBeforeDataErrs(t *testing.T) {
	c, err := NewSimCluster(2, clock.NewReal(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Publish only non-CPU data? Simplest: force tracking then read a
	// metric that has not arrived. Publish once so node dirs exist.
	if _, _, err := c.PollAll(); err != nil {
		t.Fatal(err)
	}
	c.DrainAll(50 * time.Millisecond)
	// netrtt was published; pick a file for a node that exists and clear
	// the store to simulate missing data.
	c.Nodes[1].DMon().Store().Forget("node0")
	if _, err := c.Nodes[1].FS().ReadFile("cluster/node0/loadavg"); err == nil {
		t.Fatal("read of missing remote data succeeded")
	}
}

func TestStartStopPolling(t *testing.T) {
	c, err := NewSimClusterWith(2, clock.NewReal(), 9, 0, nil, func(_ int, cfg *Config) {
		cfg.PollPeriod = 10 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range c.Nodes {
		n.StartPolling()
		n.StartPolling() // second call is a no-op
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := c.Nodes[1].DMon().Store().Value("node0", metrics.LOADAVG); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background polling never distributed data")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range c.Nodes {
		n.StopPolling()
		n.StopPolling() // idempotent
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	c, err := NewSimCluster(2, clock.NewReal(), 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSysinfoSourceLive(t *testing.T) {
	clk := clock.NewReal()
	src := NewSysinfoSource(clk)
	total := src.Sample(metrics.TOTALMEM)
	if total == 0 {
		t.Skip("no live /proc available")
	}
	free := src.Sample(metrics.FREEMEM)
	if free <= 0 || free > total {
		t.Fatalf("FREEMEM = %g of %g", free, total)
	}
	if src.Sample(metrics.LOADAVG) < 0 {
		t.Fatal("negative loadavg")
	}
	for _, id := range metrics.AllIDs() {
		if v := src.Sample(id); v < 0 {
			t.Errorf("Sample(%v) = %g", id, v)
		}
	}
}

func TestFormatMetric(t *testing.T) {
	if got := formatMetric(metrics.LOADAVG, 1.5); got != "1.50\n" {
		t.Fatalf("loadavg format = %q", got)
	}
	if got := formatMetric(metrics.FREEMEM, 1048576); got != "1048576\n" {
		t.Fatalf("freemem format = %q", got)
	}
	if got := formatMetric(metrics.NETRTT, 0.000123); got != "0.000123\n" {
		t.Fatalf("netrtt format = %q", got)
	}
}

func TestHealthFileExposesSelfHealingCounters(t *testing.T) {
	c, err := NewSimCluster(2, clock.NewReal(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Nodes[0].MonitoringChannel().WaitForPeers(1, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	content, err := c.Nodes[0].FS().ReadFile("cluster/node0/health")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"node node0",
		"channel dproc.monitoring peers 1",
		"channel dproc.monitoring reconnects",
		"channel dproc.monitoring deadline_drops",
		"registry dials",
		"registry heartbeats",
	} {
		if !strings.Contains(content, want) {
			t.Fatalf("health file missing %q:\n%s", want, content)
		}
	}
	h := c.Nodes[0].Health()
	if got := h.Value("registry", "", "dials"); got < 1 {
		t.Fatalf("registry dials = %d, want >= 1", got)
	}
	// Both channels register their counters under the unified registry.
	for _, ch := range []string{"dproc.monitoring", "dproc.control"} {
		if !strings.Contains(content, "channel "+ch+" ") {
			t.Fatalf("health file missing channel %s:\n%s", ch, content)
		}
	}
}

func TestStandaloneHealthFileHasNoChannels(t *testing.T) {
	n, err := NewNode(Config{Name: "solo", Clock: clock.NewReal(), Source: simres.NewHost("solo", clock.NewReal(), 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	content, err := n.FS().ReadFile("cluster/solo/health")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(content, "node solo") {
		t.Fatalf("health file = %q", content)
	}
	if strings.Contains(content, "channel ") {
		t.Fatalf("standalone health file lists channels:\n%s", content)
	}
}

// feedRemote folds synthetic loadavg reports for a remote node into a
// standalone node's store and materializes its VFS entries.
func feedRemote(t *testing.T, n *Node, remote string, count int) {
	t.Helper()
	for i := 1; i <= count; i++ {
		ts := clock.Epoch.Add(time.Duration(i) * time.Second)
		n.DMon().Store().Update(&metrics.Report{
			Node: remote, Seq: uint64(i), Time: ts,
			Samples: []metrics.Sample{{ID: metrics.LOADAVG, Value: float64(i), Time: ts}},
		})
	}
	n.Refresh()
}

// TestRefreshListsNodesOnlyWhenTheSetChanges: Refresh lists the store's
// nodes only after the store's generation moves. A node first seen after
// many unchanged polls, and a node forgotten and heard from again, both get
// their cluster/<node>/ entries on the next Refresh; with the node set
// unchanged, Refresh does not list (Store.Nodes allocates, Refresh must not).
func TestRefreshListsNodesOnlyWhenTheSetChanges(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 50; i++ {
		clk.Advance(time.Second)
		if _, published, err := n.PollOnce(); err != nil || !published {
			t.Fatalf("poll %d: published %v, err %v", i, published, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, n.Refresh); allocs != 0 {
		t.Fatalf("Refresh with an unchanged node set allocated %.0f times: it listed the nodes", allocs)
	}
	if _, err := n.FS().ReadFile("cluster/maui/loadavg"); err == nil {
		t.Fatal("cluster/maui exists before maui reported")
	}
	feedRemote(t, n, "maui", 1)
	if got, err := n.FS().ReadFile("cluster/maui/loadavg"); err != nil || got != "1.00\n" {
		t.Fatalf("new node's loadavg = %q, %v", got, err)
	}
	n.DMon().Store().Forget("maui")
	n.Refresh()
	feedRemote(t, n, "maui", 2)
	if got, err := n.FS().ReadFile("cluster/maui/loadavg"); err != nil || got != "2.00\n" {
		t.Fatalf("re-reporting node's loadavg = %q, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(100, n.Refresh); allocs != 0 {
		t.Fatalf("Refresh after catching up allocated %.0f times", allocs)
	}
}

// TestStatsCarryHistoryFootprint: every node's stats report what its
// history store holds — series, raw chunk bytes, tier bytes — durable or
// not; only a durable store adds the persistence counters.
func TestStatsCarryHistoryFootprint(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	feedRemote(t, n, "maui", 60)
	st := n.DMon().Store().TSDB().Stats()
	if st.Series != 1 || st.Bytes == 0 || st.TierBuckets == 0 || st.TierBytes == 0 {
		t.Fatalf("store stats after 60 reports: %+v", st)
	}
	stats := n.StatsText()
	for _, want := range []string{
		fmt.Sprintf("tsdb series %d\n", st.Series),
		fmt.Sprintf("tsdb raw_bytes %d\n", st.Bytes),
		fmt.Sprintf("tsdb tier_bytes %d\n", st.TierBytes),
	} {
		if !strings.Contains(stats, want) {
			t.Fatalf("stats missing %q:\n%s", want, stats)
		}
	}
	if strings.Contains(stats, "tsdb wal_") {
		t.Fatalf("memory-only node reports WAL counters:\n%s", stats)
	}
}

func TestHistoryFileTimestampFormat(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	feedRemote(t, n, "maui", 3)
	content, err := n.FS().ReadFile("cluster/maui/history/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	// Epoch is 2003-06-23T00:00:00Z = 1056326400 Unix; each line is
	// "<unix seconds to 3 decimals> <value>", oldest first — plottable
	// as-is.
	want := "1056326401.000 1\n1056326402.000 2\n1056326403.000 3\n"
	if content != want {
		t.Fatalf("history file = %q, want %q", content, want)
	}
}

func TestHistoryDepthConfigThreadsThrough(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1), HistoryDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	feedRemote(t, n, "maui", 10)
	content, err := n.FS().ReadFile("cluster/maui/history/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(content), "\n")
	if len(lines) != 4 {
		t.Fatalf("history view = %d lines, want the configured depth 4:\n%s", len(lines), content)
	}
	if !strings.HasSuffix(lines[3], " 10") || !strings.HasSuffix(lines[0], " 7") {
		t.Fatalf("history view window = %q", lines)
	}
}

func TestQueryControlFile(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	feedRemote(t, n, "maui", 60)
	// Reading before any query returns usage text.
	out, err := n.FS().ReadFile("cluster/maui/query")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "write a query first") {
		t.Fatalf("initial query file = %q", out)
	}
	// Write a query string, read the result: the paper's control-file
	// contract applied to the tsdb.
	if err := n.FS().WriteFile("cluster/maui/query", "avg loadavg last 10s\n"); err != nil {
		t.Fatal(err)
	}
	out, err = n.FS().ReadFile("cluster/maui/query")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "value 55.5\n") || !strings.Contains(out, "samples 10\n") {
		t.Fatalf("query result = %q", out)
	}
	// Malformed queries are rejected at write time and leave the last
	// result intact.
	if err := n.FS().WriteFile("cluster/maui/query", "bogus"); err == nil {
		t.Fatal("malformed query accepted")
	}
	if again, _ := n.FS().ReadFile("cluster/maui/query"); again != out {
		t.Fatal("failed query clobbered the last result")
	}
}

// The local node answers for its own history as for a peer's: PollOnce
// folds its own report into its store, and cluster/<self>/query and
// cluster/<self>/history/<metric> read it.
func TestQueryControlFileOfSelf(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	n, err := NewNode(Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		if _, _, err := n.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := n.FS().ReadFile("cluster/alan/history/loadavg")
	if err != nil {
		t.Fatal(err)
	}
	samples := len(strings.Split(strings.TrimSpace(hist), "\n"))
	if err := n.FS().WriteFile("cluster/alan/query", "count loadavg\n"); err != nil {
		t.Fatal(err)
	}
	out, err := n.FS().ReadFile("cluster/alan/query")
	if err != nil || !strings.Contains(out, fmt.Sprintf("samples %d\n", samples)) || samples < 1 {
		t.Fatalf("own query = %q, %v; history holds %d samples:\n%s", out, err, samples, hist)
	}
}

// TestRelayTreeClusterFormsExactlyTheTree pins formation on a clock that
// never advances, where no supervisor round will ever tidy up: nodes join in
// creation order, not tree order, so every Join dials edges the final tree
// does not have, and NewSimClusterWith must return with each monitoring
// channel holding its tree neighbours and nothing else.
func TestRelayTreeClusterFormsExactlyTheTree(t *testing.T) {
	const n = 16
	c, err := NewSimClusterWith(n, clock.NewVirtual(clock.Epoch), 1, 0, nil, func(_ int, cfg *Config) {
		cfg.RelayBranching = 2
		cfg.RelayRole = overlay.RoleRelay
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	extra := 0
	for _, node := range c.Nodes {
		want, err := node.MonitoringChannel().DesiredPeers()
		if err != nil {
			t.Fatal(err)
		}
		got := node.MonitoringChannel().Peers()
		if !slices.Equal(got, want) {
			t.Errorf("%s: monitoring peers %v, want the tree neighbours %v", node.Name(), got, want)
			extra += len(got) - len(want)
		}
		if ctl := node.ControlChannel().Peers(); len(ctl) != n-1 {
			t.Errorf("%s: %d control peers, want the full mesh of %d", node.Name(), len(ctl), n-1)
		}
	}
	if extra != 0 {
		t.Errorf("%d edge-ends beyond the tree", extra)
	}
}

// Core owns each channel's overlay: a Topology or Role left in
// Config.Channel reaches neither channel. With a chain there (a relay tree of
// branching 1) and RelayBranching zero, both channels are still full
// meshes, so a targeted control write reaches a node the chain would have
// put two hops away.
func TestChannelTopologyIsCoresToFill(t *testing.T) {
	const n = 3
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	clk := clock.NewVirtual(clock.Epoch) // no supervisor round tidies up
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{Name: fmt.Sprintf("node%d", i), RegistryAddr: reg.Addr(), Clock: clk,
			Source: simres.NewHost(fmt.Sprintf("node%d", i), clk, int64(i))}
		cfg.Channel.Topology = overlay.RelayTree{Branching: 1}
		cfg.Channel.Role = overlay.RoleRelay
		if nodes[i], err = NewNode(cfg); err != nil {
			t.Fatal(err)
		}
		defer nodes[i].Close()
	}
	for _, node := range nodes {
		for _, ch := range []*kecho.Channel{node.ControlChannel(), node.MonitoringChannel()} {
			if !ch.WaitForPeers(n-1, 2*time.Second) {
				t.Errorf("%s %s: peers %v, want the full mesh of %d", node.Name(), ch.Name(), ch.Peers(), n-1)
			}
		}
	}
	if err := nodes[0].ControlChannel().SubmitTo("node2", []byte("x")); err != nil {
		t.Fatalf("SubmitTo a node the chain would not neighbour: %v", err)
	}
}
