package smartpointer

import (
	"time"
)

// PolicyKind selects how the server customizes a client's stream, matching
// the paper's three compared configurations.
type PolicyKind int

// Policies.
const (
	// PolicyNone sends the original stream with no customization.
	PolicyNone PolicyKind = iota
	// PolicyStatic applies a fixed, client-specified transform for the
	// whole run, chosen a priori without resource information.
	PolicyStatic
	// PolicyDynamic chooses a transform per event using the client resource
	// information dproc delivers.
	PolicyDynamic
)

// String names the policy as in the paper's figure legends.
func (p PolicyKind) String() string {
	switch p {
	case PolicyNone:
		return "no filter"
	case PolicyStatic:
		return "static filter"
	case PolicyDynamic:
		return "dynamic filter"
	}
	return "policy(?)"
}

// MonitorSet selects which resources the dynamic filter consults — the
// Figure 11 ablation compares CPU-only, network-only, and hybrid
// (CPU+network+disk) monitors.
type MonitorSet struct {
	CPU  bool
	Net  bool
	Disk bool
}

// Monitor set presets from the paper.
var (
	MonitorCPUOnly = MonitorSet{CPU: true}
	MonitorNetOnly = MonitorSet{Net: true}
	MonitorHybrid  = MonitorSet{CPU: true, Net: true, Disk: true}
)

// String names the monitor set as in Figure 11's legend.
func (m MonitorSet) String() string {
	switch m {
	case MonitorCPUOnly:
		return "cpu monitor"
	case MonitorNetOnly:
		return "network monitor"
	case MonitorHybrid:
		return "hybrid monitor"
	}
	s := ""
	if m.CPU {
		s += "cpu+"
	}
	if m.Net {
		s += "net+"
	}
	if m.Disk {
		s += "disk+"
	}
	if s == "" {
		return "none"
	}
	return s[:len(s)-1]
}

// ClientInfo is the server's dproc-derived view of one client's resources.
type ClientInfo struct {
	// Load is the client's run-queue length; CPUShare the fraction one more
	// process would get.
	Load     float64
	CPUShare float64
	// AvailBps is the client link's capacity minus background perturbation.
	AvailBps float64
	// DiskSectorsPerSec is the client's current disk activity;
	// DiskCapBps its disk bandwidth.
	DiskSectorsPerSec float64
	DiskCapBps        float64
	// Valid is false when no monitoring data has arrived yet.
	Valid bool
}

// preferenceOrder ranks transforms from richest data to most degraded; the
// dynamic policy picks the first one whose estimated latency meets the
// deadline, falling back to the global minimum when none does.
var preferenceOrder = []Transform{
	Full, DropVelocity, Quantize, Subsample2, Subsample4, PreRender, RenderSubsample,
}

// Stages is the per-resource time breakdown of one event's journey through
// the client pipeline: network transfer, CPU processing, disk commit.
type Stages struct {
	Net, CPU, Disk float64 // seconds
}

// Max is the slowest pipeline stage; the stream is sustainable only while
// Max stays below the send interval (otherwise a queue builds somewhere).
func (s Stages) Max() float64 {
	m := s.Net
	if s.CPU > m {
		m = s.CPU
	}
	if s.Disk > m {
		m = s.Disk
	}
	return m
}

// EstimateStages predicts the per-stage cost of a transform given the
// monitored client state, consulting only the resources in the monitor set
// (unmonitored resources are assumed ideal — which is exactly how
// single-resource adaptation goes wrong in Figure 11).
func EstimateStages(t Transform, info ClientInfo, fullBytes int, baseProcSec float64, monitors MonitorSet) Stages {
	bytes := float64(fullBytes) * t.SizeFactor()
	var st Stages
	if monitors.Net {
		avail := info.AvailBps
		if avail < 1e5 {
			avail = 1e5
		}
		st.Net = bytes * 8 / avail
	} else {
		// Assume an unloaded Fast Ethernet link.
		st.Net = bytes * 8 / 100e6
	}
	perByte := baseProcSec / float64(fullBytes)
	if monitors.CPU {
		share := info.CPUShare
		if share <= 0 {
			share = 0.01
		}
		st.CPU = bytes * perByte * t.CostFactor() / share
	} else {
		st.CPU = bytes * perByte * t.CostFactor()
	}
	if monitors.Disk && info.DiskCapBps > 0 {
		// Disk time for this event, inflated when the disk is already busy.
		st.Disk = bytes * 8 / info.DiskCapBps
		usage := info.DiskSectorsPerSec * 512 * 8 / info.DiskCapBps
		if usage > 0.9 {
			st.Disk *= 1 + (usage-0.9)*20
		}
	} else {
		st.Disk = bytes * 8 / DefaultDiskBps
	}
	return st
}

// ChooseDynamic picks the transform for the next event: the richest one the
// client can *sustain* at the send interval (every pipeline stage within the
// deadline), or, when none is sustainable, the one minimizing the slowest
// stage.
func ChooseDynamic(info ClientInfo, fullBytes int, interval time.Duration, baseProcSec float64, monitors MonitorSet) Transform {
	if !info.Valid {
		return Full
	}
	deadline := interval.Seconds() * 0.85
	best := Full
	bestMax := EstimateStages(Full, info, fullBytes, baseProcSec, monitors).Max()
	for _, t := range preferenceOrder {
		st := EstimateStages(t, info, fullBytes, baseProcSec, monitors)
		if st.Max() <= deadline {
			return t
		}
		if st.Max() < bestMax {
			best, bestMax = t, st.Max()
		}
	}
	return best
}
