package smartpointer

import (
	"errors"
	"sync"
	"time"

	"dproc/internal/dmon"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/wire"
)

// DataChannel is the KECho channel SmartPointer streams frames on, separate
// from dproc's monitoring and control channels, exactly as the paper's
// server "establishes an event channel and interested clients subscribe".
const DataChannel = "smartpointer.data"

// Live stream message types.
const (
	msgSubscribe uint8 = iota + 1
	msgFrame
)

// Subscription is a client's stream request.
type Subscription struct {
	// Client is the subscriber's channel member ID (its dproc node name, so
	// the server can look its resources up in the monitoring store).
	Client string
	// Policy selects none/static/dynamic customization.
	Policy PolicyKind
	// Static is the fixed transform for PolicyStatic.
	Static Transform
}

func (s Subscription) encode() []byte {
	e := wire.NewEncoder(32)
	e.Uint8(msgSubscribe)
	e.String(s.Client)
	e.Uint8(uint8(s.Policy))
	e.Uint8(uint8(s.Static))
	return e.Bytes()
}

// FrameEvent is one delivered stream event.
type FrameEvent struct {
	Seq       uint64
	Transform Transform
	Atoms     int
	SentAt    time.Time
	Payload   []byte
}

func encodeFrame(seq uint64, t Transform, atoms int, sentAt time.Time, payload []byte) []byte {
	e := wire.NewEncoder(32 + len(payload))
	e.Uint8(msgFrame)
	e.Uint64(seq)
	e.Uint8(uint8(t))
	e.Uint32(uint32(atoms))
	e.Time(sentAt)
	e.BytesField(payload)
	return e.Bytes()
}

func decodeFrame(payload []byte) (*FrameEvent, error) {
	d := wire.NewDecoder(payload)
	if d.Uint8() != msgFrame {
		return nil, errors.New("smartpointer: not a frame event")
	}
	f := &FrameEvent{
		Seq:       d.Uint64(),
		Transform: Transform(d.Uint8()),
		Atoms:     int(d.Uint32()),
		SentAt:    d.Time(),
		Payload:   d.BytesField(),
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return f, nil
}

// LiveServer streams real molecular dynamics frames over a KECho channel,
// customizing each subscriber's stream with the policy it asked for. For
// dynamic policies the server consults the dproc store — the monitoring data
// that dproc's channels deliver about each client's node.
type LiveServer struct {
	ch    *kecho.Channel
	gen   *Generator
	store *dmon.Store
	// BaseProcSec is the server's estimate of client processing cost for a
	// full frame on an idle client, used by the dynamic policy.
	BaseProcSec float64
	// Interval is the send period assumed by the dynamic policy.
	Interval time.Duration

	mu     sync.Mutex
	subs   map[string]Subscription
	seq    uint64
	sent   map[Transform]uint64
	policy *EcodePolicy // optional E-code adaptation policy
	// policyErrors counts failed policy evaluations (fall back to the
	// builtin hybrid chooser, mirroring d-mon's fail-open filters).
	policyErrors uint64
	// dropped counts subscribers removed after delivery failures (the peer
	// is gone from the channel, not merely slow).
	dropped uint64
	// skipped counts frames not sent because a subscriber's outbound queue
	// was momentarily full — transient backpressure; the subscription is
	// kept and the client simply misses that frame.
	skipped uint64
}

// NewLiveServer wraps a joined channel. store may be nil, in which case
// dynamic subscribers are served as if no monitoring data existed (full
// stream) — the a-priori behaviour the paper contrasts against.
func NewLiveServer(ch *kecho.Channel, gen *Generator, store *dmon.Store) *LiveServer {
	s := &LiveServer{
		ch:          ch,
		gen:         gen,
		store:       store,
		BaseProcSec: 0.15,
		Interval:    180 * time.Millisecond,
		subs:        map[string]Subscription{},
		sent:        map[Transform]uint64{},
	}
	ch.Subscribe(func(ev kecho.Event) {
		d := wire.NewDecoder(ev.Payload)
		if d.Uint8() != msgSubscribe {
			return
		}
		sub := Subscription{
			Client: d.String(),
			Policy: PolicyKind(d.Uint8()),
			Static: Transform(d.Uint8()),
		}
		if d.Finish() != nil || sub.Client == "" {
			return
		}
		s.mu.Lock()
		s.subs[sub.Client] = sub
		s.mu.Unlock()
	})
	return s
}

// Poll drains the server's channel inbox (subscriptions).
func (s *LiveServer) Poll() int { return s.ch.Poll() }

// SetEcodePolicy installs an E-code adaptation policy for dynamic
// subscribers; nil reverts to the builtin hybrid chooser. This is the
// paper's data-filter concept applied to the stream decision itself: the
// policy arrives as source, compiles at the server, and runs per event.
func (s *LiveServer) SetEcodePolicy(p *EcodePolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// PolicyErrors counts E-code policy evaluations that failed (and fell back
// to the builtin chooser).
func (s *LiveServer) PolicyErrors() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policyErrors
}

// chooseDynamic picks the transform for one dynamic subscriber.
func (s *LiveServer) chooseDynamic(info ClientInfo) Transform {
	s.mu.Lock()
	policy := s.policy
	s.mu.Unlock()
	if policy != nil && info.Valid {
		t, err := policy.Choose(info)
		if err == nil {
			return t
		}
		s.mu.Lock()
		s.policyErrors++
		s.mu.Unlock()
	}
	return ChooseDynamic(info, FullSize(s.gen.Atoms()), s.Interval, s.BaseProcSec, MonitorHybrid)
}

// Subscribers returns the currently registered client IDs.
func (s *LiveServer) Subscribers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.subs))
	for id := range s.subs {
		out = append(out, id)
	}
	return out
}

// infoFor builds the dynamic policy's view of a client from the dproc store.
func (s *LiveServer) infoFor(client string) ClientInfo {
	if s.store == nil {
		return ClientInfo{}
	}
	load, ok := s.store.Value(client, metrics.LOADAVG)
	if !ok {
		return ClientInfo{}
	}
	avail, _ := s.store.Value(client, metrics.NETAVAIL)
	disk, _ := s.store.Value(client, metrics.DISKUSAGE)
	return ClientInfo{
		Load:              load,
		CPUShare:          1 / (1 + load),
		AvailBps:          avail,
		DiskSectorsPerSec: disk,
		DiskCapBps:        DefaultDiskBps,
		Valid:             true,
	}
}

// SendFrame generates the next frame and delivers it to every subscriber,
// each through its own transform. It returns the per-client transforms used.
func (s *LiveServer) SendFrame() (map[string]Transform, error) {
	frame := s.gen.Next()
	s.mu.Lock()
	subs := make([]Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	used := make(map[string]Transform, len(subs))
	now := time.Now()
	// Cache transform applications: clients sharing a transform share bytes.
	cache := map[Transform][]byte{}
	for _, sub := range subs {
		var t Transform
		switch sub.Policy {
		case PolicyStatic:
			t = sub.Static
		case PolicyDynamic:
			t = s.chooseDynamic(s.infoFor(sub.Client))
		default:
			t = Full
		}
		payload, ok := cache[t]
		if !ok {
			payload = t.Apply(frame)
			cache[t] = payload
		}
		ev := encodeFrame(seq, t, frame.Atoms, now, payload)
		if err := s.ch.SubmitTo(sub.Client, ev); err != nil {
			if errors.Is(err, kecho.ErrOutboxFull) {
				// Slow but alive: its outbound queue is momentarily full.
				// Skip this frame and keep the subscription — dropping a
				// live stream over transient backpressure would force a
				// resubscribe for no reason.
				s.mu.Lock()
				s.skipped++
				s.mu.Unlock()
				continue
			}
			// No such peer: the client left the channel (or never connected).
			// A dead client must not starve the others: drop its
			// subscription and keep streaming (it can resubscribe).
			s.mu.Lock()
			delete(s.subs, sub.Client)
			s.dropped++
			s.mu.Unlock()
			continue
		}
		used[sub.Client] = t
		s.mu.Lock()
		s.sent[t]++
		s.mu.Unlock()
	}
	return used, nil
}

// SentByTransform reports how many frames were sent per transform.
func (s *LiveServer) SentByTransform() map[Transform]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Transform]uint64, len(s.sent))
	for k, v := range s.sent {
		out[k] = v
	}
	return out
}

// LiveClient receives a customized stream over a KECho channel and records
// delivery statistics.
type LiveClient struct {
	ch     *kecho.Channel
	server string

	mu      sync.Mutex
	frames  []FrameEvent
	bytes   uint64
	latency time.Duration
}

// NewLiveClient wraps a joined channel; serverID is the server's member ID.
func NewLiveClient(ch *kecho.Channel, serverID string) *LiveClient {
	c := &LiveClient{ch: ch, server: serverID}
	ch.Subscribe(func(ev kecho.Event) {
		f, err := decodeFrame(ev.Payload)
		if err != nil {
			return
		}
		c.mu.Lock()
		c.frames = append(c.frames, *f)
		c.bytes += uint64(len(f.Payload))
		c.latency = ev.Recv.Sub(f.SentAt)
		c.mu.Unlock()
	})
	return c
}

// Subscribe registers the client's stream request with the server.
func (c *LiveClient) Subscribe(policy PolicyKind, static Transform) error {
	sub := Subscription{Client: c.ch.MemberID(), Policy: policy, Static: static}
	return c.ch.SubmitTo(c.server, sub.encode())
}

// Poll drains the client's inbox, dispatching received frames.
func (c *LiveClient) Poll() int { return c.ch.Poll() }

// Frames returns the frames received so far.
func (c *LiveClient) Frames() []FrameEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FrameEvent, len(c.frames))
	copy(out, c.frames)
	return out
}

// Bytes returns the payload bytes received.
func (c *LiveClient) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// LastLatency returns the wire latency of the most recent frame.
func (c *LiveClient) LastLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latency
}
