package dmon

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/ecode"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/wire"
)

// Channel names used by every dproc node, per the paper's architecture: one
// data (monitoring) channel and one control channel.
const (
	MonitoringChannel = "dproc.monitoring"
	ControlChannel    = "dproc.control"
)

// DMon is the distributed monitor for one node.
type DMon struct {
	node string
	clk  clock.Clock

	mu       sync.Mutex
	modules  []*Module
	config   [metrics.NumResources]ResourceConfig
	filters  [metrics.NumResources]*ecode.Filter // per-resource filters
	global   *ecode.Filter                       // filter over all resources
	lastSent [metrics.NumIDs]float64
	lastSeen [metrics.NumIDs]float64
	nextDue  [metrics.NumResources]time.Time
	padding  int
	seq      uint64

	store *Store

	// poll serialises the paths that use the scratch below — PollOnce from
	// collect to publish, and FilterSamples — so no two of them ever share
	// the E-code environment or a buffer. It is taken before mu, never
	// after.
	poll       sync.Mutex
	vm         *ecode.VM
	env        *ecode.Env
	collected  []metrics.Sample // CollectDue output of the current poll
	candidates []metrics.Sample // samples that passed the thresholds
	filtered   []metrics.Sample // filter output
	report     metrics.Report   // what PollOnce returns, valid until the next PollOnce
	padBuf     []byte           // zeroes; report.Padding is a prefix of it
	enc        []byte           // report's encoding, copied by Publish

	monCh *kecho.Channel
	ctlCh *kecho.Channel

	// obs, when set, receives filter-execution timings and makes the
	// per-report trace sampling decision at the top of PollOnce — the moment
	// the event is born. Nil is fine: every call site is nil-safe.
	obs *obs.Observer

	// FilterErrors counts filter executions that failed at run time; the
	// affected poll falls back to unfiltered submission.
	filterErrors uint64

	// sourceOverCap counts filter deployments refused for source over
	// ecode's 64 KiB cap; SetMetrics moves it into the node's registry.
	sourceOverCap *atomic.Uint64
	// wrongOrigin counts received reports refused for naming a node
	// other than their publisher; SetMetrics moves it too.
	wrongOrigin *atomic.Uint64
}

// New creates a d-mon for the named node with a default memory-only
// history store, registering the standard modules backed by src. src may
// be nil if all modules are registered manually.
func New(node string, clk clock.Clock, src Source) *DMon {
	d, err := OpenWith(node, clk, src, StoreOptions{})
	if err != nil {
		panic("dmon: memory-only store cannot fail: " + err.Error()) // unreachable
	}
	return d
}

// OpenWith is New with explicit history options for the store backing
// /proc/cluster. With a DataDir set, the node's history store is durable
// and existing history is recovered before the d-mon comes up. Pair with
// Close so a clean shutdown never needs replay.
func OpenWith(node string, clk clock.Clock, src Source, opts StoreOptions) (*DMon, error) {
	store, err := OpenStore(opts)
	if err != nil {
		return nil, err
	}
	d := &DMon{
		node:          node,
		clk:           clk,
		store:         store,
		sourceOverCap: new(atomic.Uint64),
		wrongOrigin:   new(atomic.Uint64),
	}
	for r := range d.config {
		d.config[r] = ResourceConfig{Period: DefaultPeriod}
	}
	if src != nil {
		for _, m := range StandardModules(src) {
			d.Register(m)
		}
	}
	d.vm = ecode.NewVM()
	d.env = ecode.NewEnv(FilterSpec(), int(metrics.NumIDs))
	d.env.Input = make([]ecode.Record, metrics.NumIDs)
	return d, nil
}

// Close seals and flushes the history store (see Store.Close). The d-mon's
// channels are managed by the caller and unaffected.
func (d *DMon) Close() error { return d.store.Close() }

// FilterSpec returns the E-code environment spec filters are compiled
// against: every metric's upper-case symbol bound to its ID.
func FilterSpec() *ecode.EnvSpec {
	consts := map[string]int64{}
	for name, idx := range metrics.FilterSymbols() {
		consts[name] = int64(idx)
	}
	return &ecode.EnvSpec{Consts: consts}
}

// SetObserver attaches the node's observability collector. Call before
// polling starts; a nil observer (the default) keeps instrumentation to a
// single branch per stage.
func (d *DMon) SetObserver(o *obs.Observer) {
	d.mu.Lock()
	d.obs = o
	d.mu.Unlock()
}

// SetMetrics registers the d-mon's refusal counters in reg, the node's
// registry, as dmon filter_source_over_cap and dmon report_origin_mismatch.
// Call before Attach.
func (d *DMon) SetMetrics(reg *metrics.Registry) {
	d.mu.Lock()
	d.sourceOverCap = reg.Counter("dmon", "", "filter_source_over_cap")
	d.wrongOrigin = reg.Counter("dmon", "", "report_origin_mismatch")
	d.mu.Unlock()
}

// Node returns the node name.
func (d *DMon) Node() string { return d.node }

// Store returns the remote-data store backing /proc/cluster.
func (d *DMon) Store() *Store { return d.store }

// FilterErrors reports how many filter executions failed at run time.
func (d *DMon) FilterErrors() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.filterErrors
}

// Register adds a monitoring module (the paper's register service call).
// Modules can be added at any time, including while polling is active.
func (d *DMon) Register(m *Module) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Copy-on-write: a poll reads the slice header under mu and walks the
	// modules outside it, so an append must never write into an array a
	// poll may be reading.
	d.modules = append(d.modules[:len(d.modules):len(d.modules)], m)
}

// Modules returns the registered module names, in registration order.
func (d *DMon) Modules() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.modules))
	for i, m := range d.modules {
		out[i] = m.Name
	}
	return out
}

// SetPadding sets extra bytes appended to every report, used by the
// evaluation to emulate larger monitoring events (Figure 7's 5 KB events).
func (d *DMon) SetPadding(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	d.padding = n
}

// SetPeriod sets the update period for one resource class.
func (d *DMon) SetPeriod(r metrics.Resource, period time.Duration) error {
	if period <= 0 {
		return errors.New("dmon: period must be positive")
	}
	if r < 0 || r >= metrics.NumResources {
		return fmt.Errorf("dmon: invalid resource %d", int(r))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config[r].Period = period
	d.nextDue[r] = time.Time{} // re-arm immediately
	return nil
}

// Period returns the configured update period for a resource.
func (d *DMon) Period(r metrics.Resource) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.config[r].Period
}

// AddThreshold appends a send-gating threshold to the metric's resource.
// Thresholds with Metric == AnyMetric must be installed via
// AddResourceThreshold, since the target resource is ambiguous otherwise.
func (d *DMon) AddThreshold(t Threshold) error {
	if !t.Metric.Valid() {
		return fmt.Errorf("dmon: invalid metric %d", int(t.Metric))
	}
	r := t.Metric.Resource()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config[r].Thresholds = append(d.config[r].Thresholds, t)
	return nil
}

// AddResourceThreshold appends a threshold gating every metric of resource
// r (the threshold's Metric is forced to AnyMetric).
func (d *DMon) AddResourceThreshold(r metrics.Resource, t Threshold) error {
	if r < 0 || r >= metrics.NumResources {
		return fmt.Errorf("dmon: invalid resource %d", int(r))
	}
	t.Metric = AnyMetric
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config[r].Thresholds = append(d.config[r].Thresholds, t)
	return nil
}

// SetDifferential installs the paper's differential filter: each metric of
// each resource is sent only when it varies by at least pct percent from
// the last sent value. Applied to all resources.
func (d *DMon) SetDifferential(pct float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := range d.config {
		d.config[r].Thresholds = []Threshold{{Metric: AnyMetric, Kind: DiffPercent, A: pct}}
	}
}

// ClearThresholds removes all thresholds for one resource.
func (d *DMon) ClearThresholds(r metrics.Resource) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.config[r].Thresholds = nil
}

// ClearAllThresholds removes thresholds for every resource.
func (d *DMon) ClearAllThresholds() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := range d.config {
		d.config[r].Thresholds = nil
	}
}

// DeployFilter compiles E-code source and installs it as the filter for one
// resource, or for all resources when all is true. Passing empty source
// removes the filter. Compilation errors leave the previous filter intact.
func (d *DMon) DeployFilter(r metrics.Resource, all bool, source string) error {
	var f *ecode.Filter
	if source != "" {
		var err error
		// Cached: redeploying an unchanged control string (e.g. after a
		// restart, or the same filter pushed to every resource) skips the
		// whole front-end and reuses the compiled program.
		f, err = ecode.CompileCached(source, FilterSpec())
		if err != nil {
			if errors.Is(err, ecode.ErrSourceTooLarge) {
				d.mu.Lock()
				d.sourceOverCap.Add(1)
				d.mu.Unlock()
			}
			return fmt.Errorf("dmon: compiling filter: %w", err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if all {
		d.global = f
		return nil
	}
	if r < 0 || r >= metrics.NumResources {
		return fmt.Errorf("dmon: invalid resource %d", int(r))
	}
	d.filters[r] = f
	return nil
}

// HasFilter reports whether a filter is installed (global or any resource).
func (d *DMon) HasFilter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.global != nil {
		return true
	}
	for _, f := range d.filters {
		if f != nil {
			return true
		}
	}
	return false
}

// ConfigText renders the current monitoring configuration as control-file
// text — the introspective read of the control interface, so
// `cat cluster/<node>/config` round-trips with what was written. Filters
// render as comments (their source may span many commands).
func (d *DMon) ConfigText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sb strings.Builder
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		cfg := d.config[r]
		if cfg.Period != DefaultPeriod {
			fmt.Fprintf(&sb, "period %s %g\n", r, cfg.Period.Seconds())
		}
		for _, th := range cfg.Thresholds {
			switch th.Kind {
			case DiffPercent:
				fmt.Fprintf(&sb, "diff %s %g\n", r, th.A)
			case Above:
				fmt.Fprintf(&sb, "threshold %s above %g\n", th.Metric, th.A)
			case Below:
				fmt.Fprintf(&sb, "threshold %s below %g\n", th.Metric, th.A)
			case InRange:
				fmt.Fprintf(&sb, "threshold %s inrange %g %g\n", th.Metric, th.A, th.B)
			case OutOfRange:
				fmt.Fprintf(&sb, "threshold %s outrange %g %g\n", th.Metric, th.A, th.B)
			}
		}
		if d.filters[r] != nil {
			fmt.Fprintf(&sb, "# filter %s: %d bytes of E-code deployed\n",
				r, len(d.filters[r].Source()))
		}
	}
	if d.global != nil {
		fmt.Fprintf(&sb, "# filter all: %d bytes of E-code deployed\n", len(d.global.Source()))
	}
	return sb.String()
}

// Apply executes one parsed control command against this d-mon.
func (d *DMon) Apply(cmd Command) error {
	switch cmd.Kind {
	case "period":
		if cmd.AllResources {
			for r := metrics.Resource(0); r < metrics.NumResources; r++ {
				if err := d.SetPeriod(r, cmd.Period); err != nil {
					return err
				}
			}
			return nil
		}
		return d.SetPeriod(cmd.Resource, cmd.Period)
	case "diff":
		if cmd.AllResources {
			d.SetDifferential(cmd.Threshold.A)
			return nil
		}
		d.mu.Lock()
		d.config[cmd.Resource].Thresholds = []Threshold{cmd.Threshold}
		d.mu.Unlock()
		return nil
	case "threshold":
		return d.AddThreshold(cmd.Threshold)
	case "clear":
		if cmd.AllResources {
			d.ClearAllThresholds()
			return nil
		}
		d.ClearThresholds(cmd.Resource)
		return nil
	case "filter":
		return d.DeployFilter(cmd.Resource, cmd.AllResources, cmd.Source)
	}
	return fmt.Errorf("dmon: unknown command kind %q", cmd.Kind)
}

// ApplyControlText parses and applies control-file text.
func (d *DMon) ApplyControlText(text string) error {
	cmds, err := ParseControl(text)
	if err != nil {
		return err
	}
	for _, cmd := range cmds {
		if err := d.Apply(cmd); err != nil {
			return err
		}
	}
	return nil
}

// CollectDue runs every module whose resource period has elapsed and
// returns the collected samples annotated with last-sent values. It also
// refreshes the lastSeen cache for all collected metrics. The slice is the
// caller's.
func (d *DMon) CollectDue(now time.Time) []metrics.Sample {
	return d.collectDue(now, nil)
}

// The due set is a bitmask with one bit per resource.
var _ [32 - metrics.NumResources]struct{}

// collectDue is CollectDue appending to dst.
func (d *DMon) collectDue(now time.Time, dst []metrics.Sample) []metrics.Sample {
	d.mu.Lock()
	var due uint32
	for r := range d.config {
		if !now.Before(d.nextDue[r]) {
			due |= 1 << r
			d.nextDue[r] = now.Add(d.config[r].Period)
		}
	}
	mods := d.modules // Register never writes into this array
	d.mu.Unlock()
	if due == 0 {
		return dst
	}
	start := len(dst)
	for _, m := range mods {
		if m.Resource >= 0 && m.Resource < metrics.NumResources && due&(1<<m.Resource) == 0 {
			continue
		}
		dst = m.Collect(now, dst)
	}
	d.mu.Lock()
	for i := start; i < len(dst); i++ {
		id := dst[i].ID
		if id.Valid() {
			dst[i].LastSent = d.lastSent[id]
			d.lastSeen[id] = dst[i].Value
		}
	}
	d.mu.Unlock()
	return dst
}

// FilterSamples applies thresholds and any deployed filters to the
// collected samples, returning the samples to send. It updates last-sent
// bookkeeping for survivors. The returned slice is the caller's.
func (d *DMon) FilterSamples(now time.Time, samples []metrics.Sample) []metrics.Sample {
	d.poll.Lock()
	defer d.poll.Unlock()
	out := d.filterSamples(now, samples, 0)
	if len(out) == 0 {
		return nil
	}
	return append([]metrics.Sample(nil), out...)
}

// filterSamples is FilterSamples carrying the report's trace ID (0 when
// unsampled) so filter-execution spans attribute to the right trace. The
// result is d-mon scratch — d.candidates or d.filtered — valid until the
// next call; the caller holds d.poll.
func (d *DMon) filterSamples(now time.Time, samples []metrics.Sample, tid uint64) []metrics.Sample {
	if len(samples) == 0 {
		return nil
	}
	d.mu.Lock()
	// Threshold pass.
	candidates := d.candidates[:0]
	for _, s := range samples {
		if !s.ID.Valid() {
			continue
		}
		pass := true
		for _, th := range d.config[s.ID.Resource()].Thresholds {
			if !th.AppliesTo(s.ID) {
				continue
			}
			if !th.Pass(s.Value, s.LastSent) {
				pass = false
				break
			}
		}
		if pass {
			candidates = append(candidates, s)
		}
	}
	d.candidates = candidates
	global := d.global
	perRes := d.filters
	d.mu.Unlock()

	hasPerRes := false
	for _, f := range perRes {
		if f != nil {
			hasPerRes = true
			break
		}
	}
	out := candidates
	if global != nil || hasPerRes {
		out = d.runFilters(now, candidates, global, perRes, tid)
	}
	// Record what was sent.
	d.mu.Lock()
	for _, s := range out {
		if s.ID.Valid() {
			d.lastSent[s.ID] = s.Value
		}
	}
	d.mu.Unlock()
	return out
}

// runFilters executes the deployed E-code against the candidate set. The
// filter sees the full metric array (input[LOADAVG] etc., with current
// values for everything observed so far) and its output determines what is
// sent. Samples belonging to resources without any filter pass through
// untouched. The result is candidates itself when a global filter fails,
// d.filtered otherwise; the caller holds d.poll, which owns d.env.
func (d *DMon) runFilters(now time.Time, candidates []metrics.Sample, global *ecode.Filter, perRes [metrics.NumResources]*ecode.Filter, tid uint64) []metrics.Sample {
	env := d.env
	d.mu.Lock()
	o := d.obs
	for id := metrics.ID(0); id < metrics.NumIDs; id++ {
		env.Input[id] = ecode.Record{
			Value:     d.lastSeen[id],
			LastSent:  d.lastSent[id],
			ID:        int64(id),
			Timestamp: float64(now.UnixNano()) / 1e9,
		}
	}
	d.mu.Unlock()
	// Candidates carry this poll's fresh values.
	for _, s := range candidates {
		env.Input[s.ID] = ecode.Record{
			Value:     s.Value,
			LastSent:  s.LastSent,
			ID:        int64(s.ID),
			Timestamp: float64(s.Time.UnixNano()) / 1e9,
		}
	}
	vm := d.vm
	// runOne runs f and appends its output records whose metric belongs to
	// scope (every resource when scope is NumResources) to out.
	runOne := func(f *ecode.Filter, scope metrics.Resource, out []metrics.Sample) ([]metrics.Sample, bool) {
		env.Reset()
		var err error
		if o != nil {
			var dur time.Duration
			_, dur, err = f.RunTimed(vm, env)
			o.ObserveFilter(dur, tid)
		} else {
			_, err = f.Run(vm, env)
		}
		if err != nil {
			d.mu.Lock()
			d.filterErrors++
			d.mu.Unlock()
			return out, false
		}
		for i := 0; i < env.OutCount(); i++ {
			rec := env.Output[i]
			id := metrics.ID(rec.ID)
			if !id.Valid() || (scope != metrics.NumResources && id.Resource() != scope) {
				continue
			}
			s := metrics.Sample{ID: id, Value: rec.Value, LastSent: rec.LastSent, Time: now}
			for _, c := range candidates {
				if c.ID == id {
					s.Time = c.Time
					break
				}
			}
			out = append(out, s)
		}
		return out, true
	}

	if global != nil {
		var ok bool
		if d.filtered, ok = runOne(global, metrics.NumResources, d.filtered[:0]); !ok {
			return candidates // fall back to unfiltered on filter failure
		}
		return d.filtered
	}
	out := d.filtered[:0]
	// Per-resource filters: filtered resources are replaced by their filter
	// output; unfiltered resources pass through.
	for _, s := range candidates {
		if perRes[s.ID.Resource()] == nil {
			out = append(out, s)
		}
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		f := perRes[r]
		if f == nil {
			continue
		}
		mark := len(out)
		var ok bool
		if out, ok = runOne(f, r, out); ok {
			continue
		}
		// Fall back to this resource's unfiltered candidates.
		out = out[:mark]
		for _, s := range candidates {
			if s.ID.Resource() == r {
				out = append(out, s)
			}
		}
	}
	d.filtered = out
	return out
}

// BuildReport wraps samples in a report ready for submission. The report is
// the caller's; it holds samples, not a copy.
func (d *DMon) BuildReport(now time.Time, samples []metrics.Sample) *metrics.Report {
	r := &metrics.Report{}
	if pad := d.stamp(r, now, samples); pad > 0 {
		r.Padding = make([]byte, pad)
	}
	return r
}

// stamp fills r's header and samples under the next sequence number and
// returns the configured padding length; the padding itself is the
// caller's to attach.
func (d *DMon) stamp(r *metrics.Report, now time.Time, samples []metrics.Sample) (pad int) {
	d.mu.Lock()
	d.seq++
	r.Seq = d.seq
	pad = d.padding
	d.mu.Unlock()
	r.Node, r.Time, r.Samples, r.Padding = d.node, now, samples, nil
	return pad
}

// PollOnce performs one complete d-mon polling iteration: collect due
// samples, apply parameters and filters, and submit the surviving report to
// the monitoring channel. It returns the report (nil if nothing was due or
// everything was filtered) and the number of peers it was sent to.
//
// The report, its samples and its padding are d-mon's scratch: they are
// valid until the next PollOnce and must be copied to be kept. In steady
// state a poll allocates nothing — every stage writes into buffers the
// d-mon owns, under the poll mutex.
func (d *DMon) PollOnce() (*metrics.Report, int, error) {
	d.poll.Lock()
	defer d.poll.Unlock()
	now := d.clk.Now()
	d.collected = d.collectDue(now, d.collected[:0])
	if len(d.collected) == 0 {
		return nil, 0, nil
	}
	// The trace decision is made here, when the report is born, so the
	// filter-execution span downstream of this point shares the report's ID
	// with the queue/propagation/dispatch spans recorded on other nodes.
	d.mu.Lock()
	o := d.obs
	d.mu.Unlock()
	tid := o.SampleTrace()
	send := d.filterSamples(now, d.collected, tid)
	if len(send) == 0 {
		return nil, 0, nil
	}
	report := &d.report
	if pad := d.stamp(report, now, send); pad > 0 {
		if len(d.padBuf) < pad {
			d.padBuf = make([]byte, pad)
		}
		report.Padding = d.padBuf[:pad]
	}
	// The node's own report lands in its own store before submission: the
	// channels deliver only to peers, and cluster-wide history queries need
	// every node to answer for its own series — self history cannot live
	// exclusively in other nodes' stores.
	d.store.Update(report)
	d.mu.Lock()
	mon := d.monCh
	d.mu.Unlock()
	if mon == nil {
		return report, 0, nil
	}
	// Publish copies the payload into its own pooled record, so the
	// encoding buffer is free again when it returns.
	d.enc = report.AppendEncode(d.enc[:0])
	n, err := mon.Publish(d.enc, kecho.PublishOpts{TraceID: tid, Traced: true})
	return report, n, err
}

// --- channel wiring ---

// Attach connects d-mon to its monitoring and control channels: incoming
// monitoring events update the store, incoming control events are parsed
// and applied when addressed to this node (or broadcast). A report whose
// Node is not its publisher's is refused (DESIGN §6).
func (d *DMon) Attach(mon, ctl *kecho.Channel) {
	d.mu.Lock()
	d.monCh = mon
	d.ctlCh = ctl
	d.mu.Unlock()
	if mon != nil {
		mon.Subscribe(func(ev kecho.Event) {
			r := received.Get().(*metrics.Report)
			if metrics.DecodeReportInto(r, ev.Payload) == nil {
				if r.Node == ev.From {
					d.store.Update(r)
				} else {
					d.wrongOrigin.Add(1)
				}
			}
			r.Padding = nil // a view of the loaned payload
			received.Put(r)
		})
	}
	if ctl != nil {
		ctl.Subscribe(func(ev kecho.Event) {
			target, text, err := DecodeControl(ev.Payload)
			if err != nil {
				return
			}
			if target != "" && target != d.node {
				return
			}
			_ = d.ApplyControlText(text)
		})
	}
}

// received recycles the reports monitoring events are decoded into. The
// store copies what it keeps, so a report is free again once Update
// returns. A sync.Pool, not one report per d-mon: in EventDriven mode each
// peer connection's reader runs the handler, so handlers run concurrently.
var received = sync.Pool{New: func() any { return new(metrics.Report) }}

// PollChannels drains both channels' inboxes, dispatching handlers. Returns
// the number of events handled. This is the receive half of d-mon's
// per-second poll loop.
func (d *DMon) PollChannels() int {
	d.mu.Lock()
	mon, ctl := d.monCh, d.ctlCh
	d.mu.Unlock()
	n := 0
	if mon != nil {
		n += mon.Poll()
	}
	if ctl != nil {
		n += ctl.Poll()
	}
	return n
}

// SendControl publishes a control command to a remote node via the control
// channel. target == "" broadcasts to all nodes.
func (d *DMon) SendControl(target, text string) error {
	d.mu.Lock()
	ctl := d.ctlCh
	d.mu.Unlock()
	if ctl == nil {
		return errors.New("dmon: no control channel attached")
	}
	payload := EncodeControl(target, text)
	if target == "" {
		_, err := ctl.Publish(payload, kecho.PublishOpts{})
		return err
	}
	return ctl.SubmitTo(target, payload)
}

// EncodeControl builds the control-channel wire payload.
func EncodeControl(target, text string) []byte {
	e := wire.NewEncoder(16 + len(target) + len(text))
	e.String(target)
	e.String(text)
	return e.Bytes()
}

// DecodeControl parses a control-channel payload.
func DecodeControl(payload []byte) (target, text string, err error) {
	dec := wire.NewDecoder(payload)
	target = dec.String()
	text = dec.String()
	if err := dec.Finish(); err != nil {
		return "", "", err
	}
	return target, text, nil
}
