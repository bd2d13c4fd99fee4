package smartpointer

import (
	"time"

	"dproc/internal/clock"
	"dproc/internal/simres"
)

// StreamConfig configures one simulated server→client stream.
type StreamConfig struct {
	// FrameBytes is the full frame size.
	FrameBytes int
	// Interval is the server's send period.
	Interval time.Duration
	// BaseProcSec is the client's processing cost for a full frame when idle.
	BaseProcSec float64
	// Policy selects no/static/dynamic filtering.
	Policy PolicyKind
	// Static is the transform used by PolicyStatic.
	Static Transform
	// Monitors selects the resources the dynamic policy consults.
	Monitors MonitorSet
	// MonitorPeriod is how often fresh client resource information reaches
	// the server (dproc's update period). Zero means 1 s.
	MonitorPeriod time.Duration
}

// StreamSim drives one stream against a simulated client under a virtual
// clock. The harness injects load (linpack threads, network perturbation)
// through the client's host between steps.
type StreamSim struct {
	Clk    *clock.Virtual
	Client *Client
	Cfg    StreamConfig

	view       ClientInfo
	viewAt     time.Time
	haveView   bool
	transforms map[Transform]uint64
}

// NewStreamSim builds a simulation with a fresh virtual clock, host and
// client.
func NewStreamSim(cfg StreamConfig, seed int64) *StreamSim {
	if cfg.MonitorPeriod == 0 {
		cfg.MonitorPeriod = time.Second
	}
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost("client", clk, seed)
	host.SetNoise(0)
	client := NewClient("client", clk, host, cfg.FrameBytes, cfg.BaseProcSec)
	return &StreamSim{
		Clk:        clk,
		Client:     client,
		Cfg:        cfg,
		transforms: map[Transform]uint64{},
	}
}

// choose picks this event's transform per the configured policy.
func (s *StreamSim) choose(now time.Time) Transform {
	switch s.Cfg.Policy {
	case PolicyStatic:
		return s.Cfg.Static
	case PolicyDynamic:
		// Refresh the server's view of the client at the monitoring period;
		// between updates the server acts on (possibly stale) cached info.
		if !s.haveView || now.Sub(s.viewAt) >= s.Cfg.MonitorPeriod {
			s.view = s.Client.Info()
			s.viewAt = now
			s.haveView = true
		}
		return ChooseDynamic(s.view, s.Cfg.FrameBytes, s.Cfg.Interval, s.Cfg.BaseProcSec, s.Cfg.Monitors)
	default:
		return Full
	}
}

// Step sends one event and advances the clock by the send interval,
// returning the event's end-to-end latency and the transform used.
func (s *StreamSim) Step() (time.Duration, Transform) {
	now := s.Clk.Now()
	t := s.choose(now)
	bytes := int(float64(s.Cfg.FrameBytes) * t.SizeFactor())
	lat := s.Client.Receive(now, bytes, t)
	s.transforms[t]++
	s.Clk.Advance(s.Cfg.Interval)
	return lat, t
}

// Run executes steps for the given simulated duration, invoking onStep
// (if non-nil) before each send with the current simulated offset — the
// hook the experiment harness uses to add linpack threads or perturbation
// on schedule.
func (s *StreamSim) Run(duration time.Duration, onStep func(elapsed time.Duration)) {
	startT := s.Clk.Now()
	for s.Clk.Now().Sub(startT) < duration {
		if onStep != nil {
			onStep(s.Clk.Now().Sub(startT))
		}
		s.Step()
	}
}

// TransformCounts returns how many events used each transform.
func (s *StreamSim) TransformCounts() map[Transform]uint64 {
	out := make(map[Transform]uint64, len(s.transforms))
	for k, v := range s.transforms {
		out[k] = v
	}
	return out
}
