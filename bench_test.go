// Benchmarks regenerating the measured quantity behind every figure of the
// paper's evaluation (Figures 4–11), plus ablations of the design choices
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package dproc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/ecode"
	"dproc/internal/figures"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/netsim"
	"dproc/internal/obs"
	"dproc/internal/registry"
	"dproc/internal/simres"
	"dproc/internal/smartpointer"
	"dproc/internal/supermon"
	"dproc/internal/wire"
	"dproc/internal/workload"
)

const benchNodes = 8

// fig3Filter is the paper's Figure 3 E-code filter: forward the load average
// when it is high, disk usage and free memory when both are bad, and the
// cache-miss rate when it rose since it was last sent.
const fig3Filter = `
{
  int i = 0;
  if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; i = i + 1; }
  if(input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6){
    output[i] = input[DISKUSAGE]; i = i + 1;
    output[i] = input[FREEMEM]; i = i + 1;
  }
  if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
    output[i] = input[CACHE_MISS]; i = i + 1;
  }
}`

// newBenchCluster builds an 8-node cluster on a virtual clock with the
// given monitoring variant and per-event padding.
func newBenchCluster(b *testing.B, v figures.Variant, padding int) (*core.SimCluster, *clock.Virtual) {
	b.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	c, err := core.NewSimCluster(benchNodes, clk, 20030623, padding)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for _, n := range c.Nodes {
		switch v {
		case figures.Period2s:
			for r := metrics.Resource(0); r < metrics.NumResources; r++ {
				if err := n.DMon().SetPeriod(r, 2*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		case figures.Differential:
			n.DMon().SetDifferential(15)
		}
	}
	return c, clk
}

// benchSubmission times node0's complete d-mon polling iteration (collect,
// filter, submit to 7 peers) — the quantity of Figures 6 and 7, and the
// CPU-overhead driver of Figure 4.
func benchSubmission(b *testing.B, v figures.Variant, padding int) {
	c, clk := newBenchCluster(b, v, padding)
	d := c.Nodes[0].DMon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.PollOnce(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		clk.Advance(time.Second)
		b.StartTimer()
	}
}

// BenchmarkFigure4CPUPerturbation measures the monitoring work that steals
// linpack Mflops in Figure 4: one full d-mon poll iteration per variant on
// an 8-node cluster.
func BenchmarkFigure4CPUPerturbation(b *testing.B) {
	for _, v := range figures.Variants() {
		b.Run(v.String(), func(b *testing.B) { benchSubmission(b, v, 0) })
	}
}

// BenchmarkFigure5NetPerturbation measures the monitoring bytes placed on
// the wire per poll iteration — the bandwidth dproc steals from Iperf in
// Figure 5. Reported as bytes/iteration via a custom metric.
func BenchmarkFigure5NetPerturbation(b *testing.B) {
	for _, v := range figures.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			c, clk := newBenchCluster(b, v, 0)
			d := c.Nodes[0].DMon()
			ch := c.Nodes[0].MonitoringChannel()
			start := ch.Stats().BytesSent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.PollOnce(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				clk.Advance(time.Second)
				b.StartTimer()
			}
			b.StopTimer()
			sent := ch.Stats().BytesSent - start
			b.ReportMetric(float64(sent)/float64(b.N), "wire-bytes/iter")
		})
	}
}

// BenchmarkFigure6Submission is the Figure 6 microbenchmark: submission
// overhead per polling iteration with 50–100 byte events.
func BenchmarkFigure6Submission(b *testing.B) {
	for _, v := range figures.Variants() {
		b.Run(v.String(), func(b *testing.B) { benchSubmission(b, v, 0) })
	}
}

// BenchmarkFigure7SubmissionLarge is Figure 7: the same path with ~5 KB
// events.
func BenchmarkFigure7SubmissionLarge(b *testing.B) {
	for _, v := range figures.Variants() {
		b.Run(v.String(), func(b *testing.B) { benchSubmission(b, v, 5000) })
	}
}

// BenchmarkFigure8Receive is Figure 8's receive path: each iteration is one
// full monitoring round — every peer publishes, the events land, and the
// receiver drains its inbox. The timed region includes the peers' publish
// cost (excluding it via StopTimer makes Go's calibration run unbounded
// untimed work); the variant ordering — the figure's payload — is
// unaffected, and the receive-only microsecond numbers come from
// figures.Figure8 / cmd/figures.
func BenchmarkFigure8Receive(b *testing.B) {
	for _, v := range figures.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			c, clk := newBenchCluster(b, v, 0)
			receiver := c.Nodes[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expected := 0
				for _, n := range c.Nodes[1:] {
					report, _, err := n.DMon().PollOnce()
					if err != nil {
						b.Fatal(err)
					}
					if report != nil {
						expected++
					}
				}
				if expected > 0 {
					deadline := time.Now().Add(time.Second)
					for receiver.MonitoringChannel().Pending() < expected && time.Now().Before(deadline) {
					}
				}
				receiver.DMon().PollChannels()
				clk.Advance(time.Second)
			}
		})
	}
}

// benchStream runs one SmartPointer simulation step per b.N iteration.
func benchStream(b *testing.B, cfg smartpointer.StreamConfig, setup func(*smartpointer.StreamSim)) {
	sim := smartpointer.NewStreamSim(cfg, 1)
	if setup != nil {
		setup(sim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkFigure9aLatency drives the Figure 9(a) scenario: a CPU-loaded
// client under each policy.
func BenchmarkFigure9aLatency(b *testing.B) {
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			benchStream(b, smartpointer.StreamConfig{
				FrameBytes:  1_000_000,
				Interval:    180 * time.Millisecond,
				BaseProcSec: 0.15,
				Policy:      policy,
				Static:      smartpointer.DropVelocity,
				Monitors:    smartpointer.MonitorHybrid,
			}, func(s *smartpointer.StreamSim) {
				for i := 0; i < 4; i++ {
					s.Client.Host.AddTask(1)
				}
			})
		})
	}
}

// BenchmarkFigure9bEventRate reports the client's sustained event rate
// under maximum CPU load, per policy — the Figure 9(b) end points.
func BenchmarkFigure9bEventRate(b *testing.B) {
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			sim := smartpointer.NewStreamSim(smartpointer.StreamConfig{
				FrameBytes:  1_000_000,
				Interval:    180 * time.Millisecond,
				BaseProcSec: 0.15,
				Policy:      policy,
				Static:      smartpointer.DropVelocity,
				Monitors:    smartpointer.MonitorHybrid,
			}, 1)
			for i := 0; i < 9; i++ {
				sim.Client.Host.AddTask(1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			b.StopTimer()
			rate := sim.Client.RateOver(sim.Clk.Now(), 10*time.Second)
			b.ReportMetric(rate, "events/sim-sec")
		})
	}
}

// BenchmarkFigure10NetLatency drives the Figure 10 scenario (3 MB events,
// 80 Mbps perturbation — past the knee) per policy, reporting the modeled
// event latency.
func BenchmarkFigure10NetLatency(b *testing.B) {
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			sim := smartpointer.NewStreamSim(smartpointer.StreamConfig{
				FrameBytes:  3 << 20,
				Interval:    800 * time.Millisecond,
				BaseProcSec: 0.02,
				Policy:      policy,
				Static:      smartpointer.DropVelocity,
				Monitors:    smartpointer.MonitorHybrid,
			}, 1)
			sim.Client.Host.Link().SetPerturbation(netsim.Mbps(80))
			b.ResetTimer()
			var last time.Duration
			for i := 0; i < b.N; i++ {
				last, _ = sim.Step()
			}
			b.StopTimer()
			b.ReportMetric(last.Seconds(), "sim-latency-sec")
		})
	}
}

// BenchmarkFigure11Hybrid drives the Figure 11 scenario (combined CPU and
// network pressure) per monitor scope, reporting the modeled latency.
func BenchmarkFigure11Hybrid(b *testing.B) {
	for _, monitors := range []smartpointer.MonitorSet{
		smartpointer.MonitorCPUOnly, smartpointer.MonitorNetOnly, smartpointer.MonitorHybrid,
	} {
		b.Run(monitors.String(), func(b *testing.B) {
			sim := smartpointer.NewStreamSim(smartpointer.StreamConfig{
				FrameBytes:  3 << 20,
				Interval:    800 * time.Millisecond,
				BaseProcSec: 0.3,
				Policy:      smartpointer.PolicyDynamic,
				Monitors:    monitors,
			}, 1)
			for i := 0; i < 6; i++ {
				sim.Client.Host.AddTask(1)
			}
			sim.Client.Host.Link().SetPerturbation(netsim.Mbps(60))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
			b.StopTimer()
			b.ReportMetric(sim.Client.MeanLatency(20).Seconds(), "sim-latency-sec")
		})
	}
}

// --- Ablations (DESIGN.md section 4) ---

// BenchmarkAblationDifferentialThreshold sweeps the differential filter's
// percentage, reporting the fraction of metrics that still get sent — the
// overhead-vs-freshness lever of the paper's microbenchmarks.
func BenchmarkAblationDifferentialThreshold(b *testing.B) {
	for _, pct := range []float64{1, 5, 15, 30} {
		b.Run(fmt.Sprintf("diff=%g%%", pct), func(b *testing.B) {
			clk := clock.NewVirtual(clock.Epoch)
			host := simres.NewHost("n", clk, 1) // default 2% noise
			d := dmon.New("n", clk, host)
			d.SetDifferential(pct)
			sentTotal, polls := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sent := d.FilterSamples(clk.Now(), d.CollectDue(clk.Now()))
				b.StopTimer()
				sentTotal += len(sent)
				polls++
				clk.Advance(time.Second)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(sentTotal)/float64(polls*int(metrics.NumIDs)), "send-fraction")
		})
	}
}

// BenchmarkAblationParamsVsFilter compares a threshold parameter against
// the equivalent dynamically compiled E-code filter — the paper's claim
// that parameters are "cheaper ... no dynamic code generation overhead".
func BenchmarkAblationParamsVsFilter(b *testing.B) {
	setup := func(b *testing.B, configure func(*dmon.DMon)) (*dmon.DMon, *clock.Virtual) {
		clk := clock.NewVirtual(clock.Epoch)
		host := simres.NewHost("n", clk, 1)
		host.SetNoise(0)
		d := dmon.New("n", clk, host)
		configure(d)
		return d, clk
	}
	run := func(b *testing.B, d *dmon.DMon, clk *clock.Virtual) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.FilterSamples(clk.Now(), d.CollectDue(clk.Now()))
			b.StopTimer()
			clk.Advance(time.Second)
			b.StartTimer()
		}
	}
	b.Run("parameter", func(b *testing.B) {
		d, clk := setup(b, func(d *dmon.DMon) {
			if err := d.AddThreshold(dmon.Threshold{
				Metric: metrics.LOADAVG, Kind: dmon.Above, A: 2,
			}); err != nil {
				b.Fatal(err)
			}
		})
		run(b, d, clk)
	})
	b.Run("ecode-filter", func(b *testing.B) {
		d, clk := setup(b, func(d *dmon.DMon) {
			if err := d.DeployFilter(0, true,
				"int i = 0;\n"+
					"if (input[LOADAVG].value > 2) { output[i] = input[LOADAVG]; i = i + 1; }\n"+
					"for (int m = 0; m < ninput; m++) { if (m != LOADAVG) { output[i] = input[m]; i = i + 1; } }"); err != nil {
				b.Fatal(err)
			}
		})
		run(b, d, clk)
	})
	b.Run("filter-compilation", func(b *testing.B) {
		spec := dmon.FilterSpec()
		src := "if (input[LOADAVG].value > 2) { output[0] = input[LOADAVG]; }"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ecode.Compile(src, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVMvsInterp compares compiled bytecode execution against
// tree-walking interpretation of the paper's Figure 3 filter — the value of
// E-code's dynamic code generation.
func BenchmarkAblationVMvsInterp(b *testing.B) {
	filter, err := ecode.Compile(fig3Filter, dmon.FilterSpec())
	if err != nil {
		b.Fatal(err)
	}
	mkEnv := func() *ecode.Env {
		env := filter.NewEnv(int(metrics.NumIDs))
		env.Input = make([]ecode.Record, metrics.NumIDs)
		env.Input[metrics.LOADAVG] = ecode.Record{ID: int64(metrics.LOADAVG), Value: 3}
		env.Input[metrics.DISKUSAGE] = ecode.Record{ID: int64(metrics.DISKUSAGE), Value: 20000}
		env.Input[metrics.FREEMEM] = ecode.Record{ID: int64(metrics.FREEMEM), Value: 40e6}
		env.Input[metrics.CACHE_MISS] = ecode.Record{ID: int64(metrics.CACHE_MISS), Value: 2, LastSent: 1}
		return env
	}
	b.Run("compiled-vm", func(b *testing.B) {
		env := mkEnv()
		vm := ecode.NewVM()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Reset()
			if _, err := filter.Run(vm, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		env := mkEnv()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Reset()
			if _, err := filter.Interpret(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationConstFolding measures what the compiler's constant
// folding pass buys on a filter with literal-heavy conditions (the common
// shape: thresholds against constants, as in the paper's Figure 3).
func BenchmarkAblationConstFolding(b *testing.B) {
	src := `
{
  int i = 0;
  if (input[LOADAVG].value > 8 / 4) { output[i] = input[LOADAVG]; i = i + 1; }
  if (input[DISKUSAGE].value > 100 * 100 && input[FREEMEM].value < 100e6 / 2) {
    output[i] = input[DISKUSAGE]; i = i + 1;
    output[i] = input[FREEMEM]; i = i + 1;
  }
  if (1 && input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
    output[i] = input[CACHE_MISS]; i = i + 1;
  }
}`
	spec := dmon.FilterSpec()
	for _, opts := range []struct {
		name string
		o    ecode.Options
	}{
		{"folded", ecode.Options{}},
		{"unfolded", ecode.Options{DisableFold: true}},
	} {
		b.Run(opts.name, func(b *testing.B) {
			filter, err := ecode.CompileWithOptions(src, spec, opts.o)
			if err != nil {
				b.Fatal(err)
			}
			env := filter.NewEnv(int(metrics.NumIDs))
			env.Input = make([]ecode.Record, metrics.NumIDs)
			env.Input[metrics.LOADAVG] = ecode.Record{ID: int64(metrics.LOADAVG), Value: 3}
			env.Input[metrics.DISKUSAGE] = ecode.Record{ID: int64(metrics.DISKUSAGE), Value: 20000}
			env.Input[metrics.FREEMEM] = ecode.Record{ID: int64(metrics.FREEMEM), Value: 40e6}
			env.Input[metrics.CACHE_MISS] = ecode.Record{ID: int64(metrics.CACHE_MISS), Value: 2, LastSent: 1}
			vm := ecode.NewVM()
			b.ReportMetric(float64(len(filter.Program().Code)), "instructions")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Reset()
				if _, err := filter.Run(vm, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationP2PvsCentral compares dproc's peer-to-peer submission
// with a Supermon-style central concentrator: in P2P the publisher pays for
// n-1 sends; with a concentrator the hub pays for n-1 receives plus
// (n-1)·(n-2) forwards per round — the scalability argument of the paper.
func BenchmarkAblationP2PvsCentral(b *testing.B) {
	newMesh := func(b *testing.B, n int) []*kecho.Channel {
		reg, err := registry.NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { reg.Close() })
		chans := make([]*kecho.Channel, n)
		for i := range chans {
			cli := registry.NewClient(reg.Addr())
			b.Cleanup(func() { cli.Close() })
			ch, err := kecho.Join(cli, "bench", fmt.Sprintf("m%d", i), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { ch.Close() })
			chans[i] = ch
		}
		for _, ch := range chans {
			if !ch.WaitForPeers(n-1, 5*time.Second) {
				b.Fatal("mesh did not form")
			}
		}
		return chans
	}
	payload := make([]byte, 100)
	b.Run("p2p-publisher", func(b *testing.B) {
		chans := newMesh(b, benchNodes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := chans[0].Publish(payload, kecho.PublishOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("central-concentrator", func(b *testing.B) {
		chans := newMesh(b, benchNodes)
		hub, spokes := chans[0], chans[1:]
		hub.Subscribe(func(ev kecho.Event) {
			// Forward to every spoke except the sender.
			for _, s := range spokes {
				if s.MemberID() == ev.From {
					continue
				}
				if err := hub.SubmitTo(s.MemberID(), ev.Payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One round: every spoke reports to the hub...
			for _, s := range spokes {
				if err := s.SubmitTo(hub.MemberID(), payload); err != nil {
					b.Fatal(err)
				}
			}
			// ...and the hub handles + redistributes everything.
			want := len(spokes)
			deadline := time.Now().Add(time.Second)
			handled := 0
			for handled < want && time.Now().Before(deadline) {
				handled += hub.Poll()
			}
			if handled < want {
				b.Fatal("concentrator did not receive the round")
			}
		}
	})
}

// BenchmarkAblationPollVsImmediate compares the paper's poll-driven handler
// dispatch with in-place (event-driven, formerly "immediate") dispatch on
// the receive path.
func BenchmarkAblationPollVsImmediate(b *testing.B) {
	for _, mode := range []kecho.DispatchMode{kecho.Polled, kecho.EventDriven} {
		name := "polled"
		if mode == kecho.EventDriven {
			name = "immediate"
		}
		b.Run(name, func(b *testing.B) {
			reg, err := registry.NewServer("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			cliA := registry.NewClient(reg.Addr())
			defer cliA.Close()
			cliB := registry.NewClient(reg.Addr())
			defer cliB.Close()
			a, err := kecho.Join(cliA, "bench", "a", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			recvOpts := &kecho.Options{Dispatch: mode, InboxSize: 1 << 16}
			recv, err := kecho.Join(cliB, "bench", "b", recvOpts)
			if err != nil {
				b.Fatal(err)
			}
			defer recv.Close()
			a.WaitForPeers(1, 2*time.Second)
			recv.WaitForPeers(1, 2*time.Second)
			got := make(chan struct{}, 1<<16)
			recv.Subscribe(func(kecho.Event) { got <- struct{}{} })
			payload := make([]byte, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Publish(payload, kecho.PublishOpts{}); err != nil {
					b.Fatal(err)
				}
				for delivered := false; !delivered; {
					if mode == kecho.Polled {
						recv.Poll()
					}
					select {
					case <-got:
						delivered = true
					default:
					}
				}
			}
		})
	}
}

// BenchmarkBaselineSupermonVsDproc measures one full cluster-state refresh
// under the two architectures the paper contrasts: Supermon's central
// concentrator pulling every node serially, versus dproc's peer-to-peer
// push (each node submits to all peers; the observer drains its inbox).
func BenchmarkBaselineSupermonVsDproc(b *testing.B) {
	b.Run("supermon-central-pull", func(b *testing.B) {
		servers := make([]*supermon.NodeServer, benchNodes)
		addrs := make([]string, benchNodes)
		clk := clock.NewVirtual(clock.Epoch)
		for i := range servers {
			host := simres.NewHost(fmt.Sprintf("node%d", i), clk, int64(i))
			srv, err := supermon.NewNodeServer(host.Name(), host, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			servers[i] = srv
			addrs[i] = srv.Addr()
		}
		col := supermon.NewCollector(addrs...)
		b.Cleanup(col.Close)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster, err := col.CollectOnce()
			if err != nil {
				b.Fatal(err)
			}
			if len(cluster) != benchNodes {
				b.Fatalf("collected %d nodes", len(cluster))
			}
		}
		b.StopTimer()
		// One pull round informs one observer about n nodes.
		b.ReportMetric(float64(benchNodes), "node-states/op")
	})
	b.Run("dproc-p2p-push", func(b *testing.B) {
		c, clk := newBenchCluster(b, figures.Period1s, 0)
		observer := c.Nodes[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One refresh: every node publishes, the observer drains.
			for _, n := range c.Nodes {
				if _, _, err := n.DMon().PollOnce(); err != nil {
					b.Fatal(err)
				}
			}
			deadline := time.Now().Add(time.Second)
			for observer.MonitoringChannel().Pending() < benchNodes-1 && time.Now().Before(deadline) {
				time.Sleep(20 * time.Microsecond)
			}
			observer.DMon().PollChannels()
			b.StopTimer()
			clk.Advance(time.Second)
			b.StartTimer()
		}
		b.StopTimer()
		// One push round informs every node about every other: the same
		// work would cost Supermon n concentrator rounds plus fan-out.
		b.ReportMetric(float64(benchNodes*(benchNodes-1)), "node-states/op")
	})
}

// --- component microbenchmarks ---

// BenchmarkEcodeCompile measures dynamic filter compilation (the cost the
// paper pays once per deployment).
func BenchmarkEcodeCompile(b *testing.B) {
	spec := dmon.FilterSpec()
	src := `
int i = 0;
if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; i = i + 1; }
if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){ output[i] = input[CACHE_MISS]; i = i + 1; }`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ecode.Compile(src, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportEncodeDecode measures the monitoring event codec.
func BenchmarkReportEncodeDecode(b *testing.B) {
	r := &metrics.Report{Node: "node0", Seq: 1, Time: clock.Epoch}
	for _, id := range metrics.AllIDs() {
		r.Samples = append(r.Samples, metrics.Sample{ID: id, Value: 1.5, Time: clock.Epoch})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := r.Encode()
		if _, err := metrics.DecodeReport(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFrame measures the raw framing layer.
func BenchmarkWireFrame(b *testing.B) {
	payload := make([]byte, 100)
	var buf discard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.WriteFrame(&buf, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkLinpack measures the real linpack kernel used by the workload
// generator (reported Mflops on this host appear as ns/op scale).
func BenchmarkLinpack(b *testing.B) {
	b.ResetTimer()
	var mflops float64
	for i := 0; i < b.N; i++ {
		res, err := workload.Linpack(200, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		mflops = res.Mflops
	}
	b.ReportMetric(mflops, "Mflops")
}

// BenchmarkPollRound is the round a real node runs, the cost the paper's
// Figures 4 and 6–8 measure: node A's core.Node.PollOnce — its d-mon
// collects from a busy simulated host, thresholds, runs the Figure 3 filter,
// builds and encodes the report, records it in its own history and publishes
// it — until node B's d-mon handler has decoded the report into B's store
// and B holds the load average A sampled. Two full core.Nodes over loopback
// TCP, tracing off; "polled" drives B's PollChannels, "event" lets B's
// connection reader run the handlers. `make allocgate` holds both at 0
// allocs/op: what remains is a tsdb chunk seal per few hundred samples of a
// series, ≈ 0.05 per round.
func BenchmarkPollRound(b *testing.B) {
	b.Run("polled", func(b *testing.B) { runPollRound(b, kecho.Polled) })
	b.Run("event", func(b *testing.B) { runPollRound(b, kecho.EventDriven) })
}

// loadRecorder is a simulated host that remembers the last load average it
// handed out, so a round can check B stored exactly what A sampled.
type loadRecorder struct {
	*simres.Host
	last atomic.Uint64 // float bits
}

func (s *loadRecorder) Sample(id metrics.ID) float64 {
	v := s.Host.Sample(id)
	if id == metrics.LOADAVG {
		s.last.Store(math.Float64bits(v))
	}
	return v
}

func runPollRound(b *testing.B, mode kecho.DispatchMode) {
	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	clk := clock.NewReal()
	start := func(name string, src dmon.Source) *core.Node {
		cfg := core.Defaults()
		cfg.Name = name
		cfg.RegistryAddr = reg.Addr()
		cfg.Source = src
		cfg.Channel.Dispatch = mode
		cfg.Channel.DisableReconnect = true
		cfg.TraceSample = 0
		n, err := core.NewNode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		return n
	}
	// Every clause of the Figure 3 filter fires on A's host.
	host := simres.NewHost("alan", clk, 20030623)
	host.SetBaseLoad(4)
	host.SetDiskActivity(20000)
	host.SetMemExtra(380 << 20)
	src := &loadRecorder{Host: host}
	nodeB := start("maui", simres.NewHost("maui", clk, 20030624))
	nodeA := start("alan", src)
	d := nodeA.DMon()
	if err := d.DeployFilter(0, true, fig3Filter); err != nil {
		b.Fatal(err)
	}
	// Every resource is due on every poll.
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := d.SetPeriod(r, time.Nanosecond); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range []*core.Node{nodeA, nodeB} {
		if !n.MonitoringChannel().WaitForPeers(1, 5*time.Second) {
			b.Fatal("monitoring channel did not connect")
		}
	}
	// Subscribed after d-mon's own handler, so it runs once the report is in
	// B's store.
	var got atomic.Int64
	sig := make(chan struct{}, 1)
	nodeB.MonitoringChannel().Subscribe(func(kecho.Event) {
		got.Add(1)
		if mode == kecho.EventDriven {
			sig <- struct{}{} // cap 1 never blocks: one report in flight per round
		}
	})
	store := nodeB.DMon().Store()
	var target int64
	round := func() {
		if _, published, err := nodeA.PollOnce(); err != nil || !published {
			b.Fatalf("A's poll published %v, err %v", published, err)
		}
		target++
		if mode == kecho.EventDriven {
			<-sig
		} else {
			for got.Load() < target {
				if nodeB.DMon().PollChannels() == 0 {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}
		if v, ok := store.Value("alan", metrics.LOADAVG); !ok || math.Float64bits(v) != src.last.Load() {
			b.Fatalf("B holds loadavg %g (present %v), not A's sample", v, ok)
		}
	}
	// Warm-up, as for the hot path: pools, scratch and both stores' series
	// reach steady state untimed.
	for i := 0; i < 512; i++ {
		round()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkHotPath measures the complete steady-state event hot path of one
// monitoring round, end to end: run the paper's Figure 3 E-code filter on a
// sample (pooled VM, cached compilation), publish the resulting event to a
// kecho peer (encode-once pooled records), and wait until the event has
// crossed the loopback TCP link and been dispatched to a handler (zero-copy
// frame receive, recycled payload buffers). The "polled" variant drives the
// subscriber's Poll loop — the paper-fidelity default, whose floor is the
// poll/sleep quantum — while "event" uses Dispatch: EventDriven, where the
// connection's reader runs the handler in place on the frame it just read
// and the round-trip is bounded by scheduler wake-ups, not polling. With the pooling in wire,
// kecho and ecode both variants run without steady-state allocation:
// `make allocgate` holds their allocs/op at exactly 0.
func BenchmarkHotPath(b *testing.B) {
	b.Run("polled", func(b *testing.B) {
		runHotPath(b, kecho.Polled, nil, nil)
	})
	b.Run("event", func(b *testing.B) {
		runHotPath(b, kecho.EventDriven, nil, nil)
	})
}

// BenchmarkHotPathObs is the same end-to-end round with the observability
// layer attached: histograms live but tracing disabled — the configuration
// `make allocgate` pins at 0 allocs/op. What sampled tracing costs is
// bench/'s obs.trace_overhead_ratio.
func BenchmarkHotPathObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		runHotPath(b, kecho.Polled, obs.New("pub", nil, 0), obs.New("sub", nil, 0))
	})
}

func runHotPath(b *testing.B, mode kecho.DispatchMode, pubObs, subObs *obs.Observer) {
	filter, err := ecode.CompileCached(fig3Filter, dmon.FilterSpec())
	if err != nil {
		b.Fatal(err)
	}
	pool := ecode.NewVMPool()
	env := filter.NewEnv(int(metrics.NumIDs))
	env.Input = make([]ecode.Record, metrics.NumIDs)
	env.Input[metrics.LOADAVG] = ecode.Record{ID: int64(metrics.LOADAVG), Value: 3}
	env.Input[metrics.DISKUSAGE] = ecode.Record{ID: int64(metrics.DISKUSAGE), Value: 20000}
	env.Input[metrics.FREEMEM] = ecode.Record{ID: int64(metrics.FREEMEM), Value: 40e6}
	env.Input[metrics.CACHE_MISS] = ecode.Record{ID: int64(metrics.CACHE_MISS), Value: 2, LastSent: 1}

	reg, err := registry.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	join := func(id string, o *obs.Observer, d kecho.DispatchMode) *kecho.Channel {
		cli := registry.NewClient(reg.Addr())
		b.Cleanup(func() { cli.Close() })
		ch, err := kecho.Join(cli, "hotpath", id, &kecho.Options{
			WriteDeadline:    2 * time.Second,
			DisableReconnect: true,
			Observer:         o,
			Dispatch:         d,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ch.Close() })
		return ch
	}
	sub := join("sub", subObs, mode)
	pub := join("pub", pubObs, kecho.Polled)
	if !pub.WaitForPeers(1, 5*time.Second) || !sub.WaitForPeers(1, 5*time.Second) {
		b.Fatal("hot-path mesh did not form")
	}
	var got atomic.Int64
	var seen atomic.Int64
	sig := make(chan struct{}, 1)
	sub.Subscribe(func(ev kecho.Event) {
		seen.Add(int64(len(ev.Payload)))
		got.Add(1)
		if mode == kecho.EventDriven {
			sig <- struct{}{} // cap 1 never blocks: one event in flight per round
		}
	})

	// The submitted event carries the filter's output records in the same
	// 16-bytes-per-field shape metrics.Report uses, serialized into a buffer
	// reused across rounds.
	payload := make([]byte, 0, 256)

	var target int64
	round := func() {
		env.Reset()
		vm := pool.Get()
		// Like d-mon's PollOnce: the trace decision is made when the round
		// begins, so the filter span and everything downstream share the ID.
		tid := pubObs.SampleTrace()
		var rerr error
		if pubObs != nil {
			var dur time.Duration
			_, dur, rerr = filter.RunTimed(vm, env)
			pubObs.ObserveFilter(dur, tid)
		} else {
			_, rerr = filter.Run(vm, env)
		}
		pool.Put(vm)
		if rerr != nil {
			b.Fatal(rerr)
		}
		n := env.OutCount()
		if n == 0 {
			b.Fatal("filter matched nothing; the hot path would be idle")
		}
		payload = payload[:0]
		for _, rec := range env.Output[:n] {
			payload = binary.BigEndian.AppendUint64(payload, uint64(rec.ID))
			payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(rec.Value))
		}
		if _, serr := pub.Publish(payload, kecho.PublishOpts{TraceID: tid, Traced: true}); serr != nil {
			b.Fatal(serr)
		}
		target++
		if mode == kecho.EventDriven {
			// The handler's channel send both signals completion and
			// publishes its counter updates to this goroutine.
			<-sig
			return
		}
		for got.Load() < target {
			// An empty poll must genuinely sleep, not spin: on a single-CPU
			// host a busy loop keeps the scheduler from blocking in netpoll,
			// so the arriving frame would wait for the ~10ms sysmon tick.
			if sub.Poll() == 0 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}

	// Warm-up: the first rounds grow the VM pool, outbox record pool, frame
	// reader and payload free-list to steady state — and, in polled mode,
	// drive enough sleep/wake cycles that the runtime's OS-thread pool hits
	// its high-water mark (thread creation is a heap allocation). Running
	// them untimed keeps that one-time growth out of the B/op figure, which
	// otherwise reads a spurious ~1 B/op amortized over the measured
	// iterations.
	for i := 0; i < 512; i++ {
		round()
	}
	seenBase := seen.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if seen.Load() == seenBase {
		b.Fatal("subscriber saw no payload bytes")
	}
	b.ReportMetric(float64(seen.Load()-seenBase)/float64(b.N), "payloadB/op")
}
