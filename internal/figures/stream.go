package figures

import (
	"time"

	"dproc/internal/netsim"
	"dproc/internal/smartpointer"
)

// SmartPointer experiment parameters (Section 4.2). Figure 9 streams
// moderately sized frames to a client whose processing dominates end-to-end
// time; Figures 10 and 11 stream the 3 MB frames of the network experiment.
const (
	// fig9FrameBytes keeps client processing > 90% of per-event time.
	fig9FrameBytes = 1_000_000
	// fig9Interval yields the paper's ~5.5 events/s server rate.
	fig9Interval = 180 * time.Millisecond
	// fig9BaseProc is the idle-client processing cost of one full frame.
	fig9BaseProc = 0.15

	// fig10FrameBytes is the paper's 3 MB event size.
	fig10FrameBytes = 3 << 20
	// fig10Interval offers ~30 Mbps, matching the paper's stream rate.
	fig10Interval = 800 * time.Millisecond
	// fig10BaseProc: the network client "does very little processing".
	fig10BaseProc = 0.02

	// fig11BaseProc: the hybrid client processes and stores the stream.
	fig11BaseProc = 0.3
)

// fig9Config builds the Figure 9 stream configuration for a policy.
func fig9Config(policy smartpointer.PolicyKind) smartpointer.StreamConfig {
	return smartpointer.StreamConfig{
		FrameBytes:  fig9FrameBytes,
		Interval:    fig9Interval,
		BaseProcSec: fig9BaseProc,
		Policy:      policy,
		Static:      smartpointer.DropVelocity,
		Monitors:    smartpointer.MonitorHybrid,
	}
}

// Figure9a regenerates "latency variations with increasing CPU load": the
// per-event propagation+processing time over a 2000-second run in which a
// new linpack thread starts every 200 seconds, for the three policies.
// Points are window means sampled every sampleEvery seconds.
func Figure9a(duration, sampleEvery time.Duration) *Figure {
	if duration <= 0 {
		duration = 2000 * time.Second
	}
	if sampleEvery <= 0 {
		sampleEvery = 50 * time.Second
	}
	threadEvery := duration / 10 // a new linpack thread every 10% of the run
	f := &Figure{
		ID:     "fig9a",
		Title:  "SmartPointer latency vs. time under rising CPU load",
		XLabel: "time progress (sec)",
		YLabel: "propagation + processing time (sec)",
		Notes:  []string{"one linpack thread added every " + threadEvery.String()},
	}
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		sim := smartpointer.NewStreamSim(fig9Config(policy), 1)
		series := Series{Label: policy.String()}
		added := 0
		sim.Run(duration, func(elapsed time.Duration) {
			want := int(elapsed / threadEvery)
			for added < want {
				sim.Client.Host.AddTask(1)
				added++
			}
		})
		series.Points = sampleLatencies(sim, duration, sampleEvery)
		f.Series = append(f.Series, series)
	}
	return f
}

// sampleLatencies converts a finished simulation's per-event latencies into
// window-mean points over time.
func sampleLatencies(sim *smartpointer.StreamSim, duration, sampleEvery time.Duration) []Point {
	lats := sim.Client.Latencies()
	interval := sim.Cfg.Interval
	var points []Point
	perWindow := int(sampleEvery / interval)
	if perWindow < 1 {
		perWindow = 1
	}
	for start := 0; start < len(lats); start += perWindow {
		end := start + perWindow
		if end > len(lats) {
			end = len(lats)
		}
		var sum float64
		for _, l := range lats[start:end] {
			sum += l.Seconds()
		}
		t := float64(start+perWindow) * interval.Seconds()
		if t > duration.Seconds() {
			t = duration.Seconds()
		}
		points = append(points, Point{X: t, Y: sum / float64(end-start)})
	}
	return points
}

// Figure9b regenerates "event rate variations with increasing CPU load":
// the client's effective events/second against the number of concurrent
// linpack threads, per policy.
func Figure9b(maxThreads int, perPoint time.Duration) *Figure {
	if maxThreads <= 0 {
		maxThreads = 9
	}
	if perPoint <= 0 {
		perPoint = 60 * time.Second
	}
	f := &Figure{
		ID:     "fig9b",
		Title:  "SmartPointer event rate vs. number of linpack threads",
		XLabel: "number of linpack threads",
		YLabel: "events/sec",
	}
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		series := Series{Label: policy.String()}
		for threads := 0; threads <= maxThreads; threads++ {
			sim := smartpointer.NewStreamSim(fig9Config(policy), 1)
			for i := 0; i < threads; i++ {
				sim.Client.Host.AddTask(1)
			}
			sim.Run(perPoint, nil)
			rate := sim.Client.RateOver(sim.Clk.Now(), perPoint/2)
			series.Points = append(series.Points, Point{X: float64(threads), Y: rate})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

// fig10Config builds the Figure 10 stream configuration.
func fig10Config(policy smartpointer.PolicyKind) smartpointer.StreamConfig {
	return smartpointer.StreamConfig{
		FrameBytes:  fig10FrameBytes,
		Interval:    fig10Interval,
		BaseProcSec: fig10BaseProc,
		Policy:      policy,
		Static:      smartpointer.DropVelocity,
		Monitors:    smartpointer.MonitorHybrid,
	}
}

// Figure10 regenerates "change in latency with varying network traffic":
// per-event latency of a 3 MB/event stream against Iperf perturbation from
// 0 to 90 Mbps, per policy. The link is the paper's 100 Mbps Fast Ethernet
// and the unperturbed stream needs ~30 Mbps, so the knee falls at ~70 Mbps.
func Figure10(perPoint time.Duration) *Figure {
	if perPoint <= 0 {
		perPoint = 48 * time.Second // 60 events per point
	}
	f := &Figure{
		ID:     "fig10",
		Title:  "Latency vs. network perturbation (3MB events, 100Mbps link)",
		XLabel: "network perturbation with Iperf (Mbps)",
		YLabel: "propagation + processing time (sec)",
	}
	for _, policy := range []smartpointer.PolicyKind{
		smartpointer.PolicyNone, smartpointer.PolicyStatic, smartpointer.PolicyDynamic,
	} {
		series := Series{Label: policy.String()}
		for perturb := 0.0; perturb <= 90; perturb += 10 {
			sim := smartpointer.NewStreamSim(fig10Config(policy), 1)
			sim.Client.Host.Link().SetPerturbation(netsim.Mbps(perturb))
			sim.Run(perPoint, nil)
			series.Points = append(series.Points, Point{
				X: perturb,
				Y: sim.Client.MeanLatency(20).Seconds(),
			})
		}
		f.Series = append(f.Series, series)
	}
	return f
}

// Figure11 regenerates the hybrid-client experiment: latency under combined
// CPU and network perturbation (k linpack threads and 10·k Mbps of Iperf
// traffic), comparing dynamic filters that monitor CPU only, network only,
// and CPU+network+disk. Multi-resource monitoring wins because
// single-resource adaptations aggravate the other resource.
func Figure11(perPoint time.Duration) *Figure {
	if perPoint <= 0 {
		perPoint = 48 * time.Second
	}
	f := &Figure{
		ID:     "fig11",
		Title:  "Latency with combined CPU+network perturbation, by monitor scope",
		XLabel: "combined perturbation (linpack threads; 10x Mbps Iperf)",
		YLabel: "propagation + processing time (sec)",
		Notes:  []string{"x = k means k linpack threads and k*10 Mbps network perturbation"},
	}
	for _, monitors := range []smartpointer.MonitorSet{
		smartpointer.MonitorCPUOnly, smartpointer.MonitorNetOnly, smartpointer.MonitorHybrid,
	} {
		series := Series{Label: monitors.String()}
		for k := 1; k <= 8; k++ {
			cfg := smartpointer.StreamConfig{
				FrameBytes:  fig10FrameBytes,
				Interval:    fig10Interval,
				BaseProcSec: fig11BaseProc,
				Policy:      smartpointer.PolicyDynamic,
				Monitors:    monitors,
			}
			sim := smartpointer.NewStreamSim(cfg, 1)
			for i := 0; i < k; i++ {
				sim.Client.Host.AddTask(1)
			}
			sim.Client.Host.Link().SetPerturbation(netsim.Mbps(float64(k) * 10))
			sim.Run(perPoint, nil)
			series.Points = append(series.Points, Point{
				X: float64(k),
				Y: sim.Client.MeanLatency(20).Seconds(),
			})
		}
		f.Series = append(f.Series, series)
	}
	return f
}
