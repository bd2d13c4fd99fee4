// Command dprocd runs one dproc node: it joins the cluster's monitoring and
// control channels through the registry, monitors local resources (the live
// /proc by default, or a simulated host), publishes monitoring events every
// poll period, and exposes the /proc/cluster pseudo-filesystem over a local
// admin socket for dprocctl.
//
// Usage:
//
//	dprocd -name alan -registry 127.0.0.1:7420 -admin 127.0.0.1:7501
//	dprocd -name sim0 -registry 127.0.0.1:7420 -sim -load 2.5
//	dprocd -name alan -metrics 127.0.0.1:9090   # Prometheus /metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dproc/internal/adminproto"
	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/obs"
	"dproc/internal/pprofserve"
	"dproc/internal/simres"
)

func main() {
	// Every data-plane knob binds through core.BindFlags from one validated
	// Config; only deployment concerns (admin socket, simulation, debug
	// endpoints) are dprocd's own flags.
	cfg := core.Defaults()
	cfg.Name = hostnameDefault()
	cfg.RegistryAddr = "127.0.0.1:7420"
	cfg.Clock = clock.NewReal()
	core.BindFlags(flag.CommandLine, &cfg)
	var (
		admin   = flag.String("admin", "127.0.0.1:0", "admin socket for dprocctl (empty disables)")
		sim     = flag.Bool("sim", false, "use a simulated host instead of the live /proc")
		simLoad = flag.Float64("load", 0, "simulated base CPU load (with -sim)")
		battery = flag.Float64("battery", 0, "battery capacity in Wh; >0 registers the POWER_MON module (with -sim)")
		noJoin  = flag.Bool("standalone", false, "do not join a cluster (local monitoring only)")

		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
		metricsAddr = flag.String("metrics", "", "serve Prometheus /metrics on this address (empty disables)")
		clusterExp  = flag.String("cluster-export", "", "comma-separated history metrics to scatter-gather as dproc_cluster_* on /metrics (needs -admin)")
	)
	flag.Parse()

	if addr, err := pprofserve.Start(*pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "pprof:", err)
		os.Exit(1)
	} else if addr != "" {
		fmt.Printf("pprof on http://%s/debug/pprof/\n", addr)
	}

	if *noJoin {
		cfg.RegistryAddr = ""
	}
	var simHost *simres.Host
	if *sim {
		simHost = simres.NewHost(cfg.Name, cfg.Clock, time.Now().UnixNano())
		simHost.SetBaseLoad(*simLoad)
		cfg.Source = simHost
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer node.Close()
	if *battery > 0 && simHost != nil {
		// The paper's mobile-device scenario: power monitoring arrives as a
		// dynamically registered module.
		simHost.EnableBattery(*battery, 2, 1)
		node.DMon().Register(dmon.PowerModule(simHost))
		fmt.Printf("POWER_MON registered (%.0f Wh battery)\n", *battery)
	}
	var srv *adminproto.Server
	if *admin != "" {
		// The admin server reads the node's Config: -admin-timeout,
		// -query-timeout and -query-fanout, and it heartbeats its
		// advertisement every -reconnect like the channels (none under
		// -no-heal), so the registry TTL picked against -reconnect holds
		// for queryall targets too.
		srv, err = adminproto.NewServer(node, *admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	var extra []obs.Appender
	if *clusterExp != "" {
		if srv == nil {
			fmt.Fprintln(os.Stderr, "dprocd: -cluster-export needs -admin (the exporter scatter-gathers over the admin protocol)")
			os.Exit(1)
		}
		exp := srv.ClusterExporter(strings.Split(*clusterExp, ","), 0)
		extra = append(extra, exp.Append)
	}
	if addr, err := obs.ServeMetrics(*metricsAddr, node.Metrics(), extra...); err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	} else if addr != "" {
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}
	node.StartPolling()
	fmt.Printf("dprocd %q polling every %v", cfg.Name, cfg.PollPeriod)
	if cfg.Channel.Dispatch != kecho.Polled {
		fmt.Printf(", %s dispatch", cfg.Channel.Dispatch)
	}
	if cfg.Channel.Writers > 0 {
		fmt.Printf(", %d writers", cfg.Channel.Writers)
	}
	if cfg.RegistryAddr != "" {
		fmt.Printf(", registry %s", cfg.RegistryAddr)
		if cfg.Channel.DisableReconnect {
			fmt.Printf(" (self-healing off)")
		} else {
			fmt.Printf(" (heartbeat/heal every %v)", cfg.Channel.ReconnectInterval)
		}
	}
	fmt.Println()
	if cfg.DataDir != "" {
		ps := node.DMon().Store().PersistStats()
		fmt.Printf("durable history in %s (fsync every %d): recovered %d chunks + %d WAL records",
			cfg.DataDir, cfg.FsyncEvery, ps.ChunksLoaded, ps.RecordsReplayed)
		if ps.RecordsTruncated > 0 {
			fmt.Printf(", truncated %d torn tail(s) (%d bytes)", ps.RecordsTruncated, ps.BytesTruncated)
		}
		fmt.Println()
	}
	fmt.Printf("health counters at cluster/%s/health, stats at cluster/%s/stats (via dprocctl)\n", cfg.Name, cfg.Name)

	if srv != nil {
		fmt.Printf("admin socket on %s\n", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// The deferred closes run in order: admin server first (no new
	// requests), then node.Close, which stops polling, leaves the channels
	// and seals the history store (heads persisted, WAL fsynced and
	// retired) — a clean stop never needs replay on the next start.
	if cfg.DataDir != "" {
		fmt.Println("shutting down: sealing durable history")
	} else {
		fmt.Println("shutting down")
	}
}

func hostnameDefault() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "node"
}
