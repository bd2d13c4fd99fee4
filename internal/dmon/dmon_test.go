package dmon

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/simres"
)

// simNode bundles a virtual clock, a simulated host and its d-mon.
type simNode struct {
	clk  *clock.Virtual
	host *simres.Host
	d    *DMon
}

func newSimNode(t *testing.T, name string) *simNode {
	t.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	host := simres.NewHost(name, clk, 1)
	host.SetNoise(0)
	return &simNode{clk: clk, host: host, d: New(name, clk, host)}
}

func TestStandardModulesRegistered(t *testing.T) {
	n := newSimNode(t, "alan")
	mods := n.d.Modules()
	want := []string{"CPU_MON", "MEM_MON", "DISK_MON", "NET_MON", "PMC"}
	if len(mods) != len(want) {
		t.Fatalf("modules = %v", mods)
	}
	for i, m := range want {
		if mods[i] != m {
			t.Fatalf("modules = %v, want %v", mods, want)
		}
	}
}

// standardMetricCount is what the five standard modules collect: everything
// except the Power metrics, whose module is deployed dynamically.
var standardMetricCount = func() int {
	n := 0
	for _, id := range metrics.AllIDs() {
		if id.Resource() != metrics.Power {
			n++
		}
	}
	return n
}()

func TestCollectDueGathersAllStandardMetricsInitially(t *testing.T) {
	n := newSimNode(t, "alan")
	samples := n.d.CollectDue(n.clk.Now())
	if len(samples) != standardMetricCount {
		t.Fatalf("collected %d samples, want %d (all standard metrics)", len(samples), standardMetricCount)
	}
	seen := map[metrics.ID]bool{}
	for _, s := range samples {
		seen[s.ID] = true
	}
	if len(seen) != standardMetricCount {
		t.Fatal("duplicate or missing metric IDs in collection")
	}
}

func TestPowerModuleDeployedDynamically(t *testing.T) {
	// The paper's mobile-device scenario: battery monitoring arrives as a
	// dynamically registered module, then behaves like any other.
	n := newSimNode(t, "ipaq")
	n.host.EnableBattery(20, 2, 1) // 20 Wh, 2 W idle, +1 W per load unit
	n.d.Register(PowerModule(n.host))
	samples := n.d.CollectDue(n.clk.Now())
	var battery, draw *metrics.Sample
	for i := range samples {
		switch samples[i].ID {
		case metrics.BATTERY:
			battery = &samples[i]
		case metrics.POWERDRAW:
			draw = &samples[i]
		}
	}
	if battery == nil || draw == nil {
		t.Fatal("power metrics not collected after dynamic registration")
	}
	if battery.Value != 100 {
		t.Fatalf("fresh battery = %g%%", battery.Value)
	}
	if draw.Value != 2 {
		t.Fatalf("idle draw = %gW, want 2", draw.Value)
	}
	// Ten simulated hours of heavy load drain the battery measurably.
	n.host.AddTask(4)
	n.clk.Advance(10 * time.Hour)
	got := n.host.Sample(metrics.BATTERY)
	// 6 W for 10 h = 60 Wh on a 20 Wh battery: fully drained.
	if got != 0 {
		t.Fatalf("battery after 10h at 6W = %g%%, want 0", got)
	}
	// A threshold can gate reporting on low battery, as a power-aware
	// application would configure.
	if err := n.d.ApplyControlText("threshold battery below 20"); err != nil {
		t.Fatal(err)
	}
	sent := n.d.FilterSamples(n.clk.Now(), n.d.CollectDue(n.clk.Now()))
	found := false
	for _, s := range sent {
		if s.ID == metrics.BATTERY {
			found = true
		}
	}
	if !found {
		t.Fatal("drained battery not reported despite below-20 threshold")
	}
}

func TestPeriodGatesCollection(t *testing.T) {
	n := newSimNode(t, "alan")
	if err := n.d.SetPeriod(metrics.CPU, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// First collection: everything due.
	if s := n.d.CollectDue(n.clk.Now()); len(s) == 0 {
		t.Fatal("initial collection empty")
	}
	// One second later: CPU not due (2 s period), others due (1 s).
	n.clk.Advance(time.Second)
	s := n.d.CollectDue(n.clk.Now())
	for _, sample := range s {
		if sample.ID.Resource() == metrics.CPU {
			t.Fatalf("CPU metric %v collected before its 2s period elapsed", sample.ID)
		}
	}
	if len(s) == 0 {
		t.Fatal("non-CPU resources should still be due")
	}
	// Another second: CPU due again.
	n.clk.Advance(time.Second)
	s = n.d.CollectDue(n.clk.Now())
	foundCPU := false
	for _, sample := range s {
		if sample.ID == metrics.LOADAVG {
			foundCPU = true
		}
	}
	if !foundCPU {
		t.Fatal("CPU metrics missing after period elapsed")
	}
}

func TestSetPeriodValidation(t *testing.T) {
	n := newSimNode(t, "alan")
	if err := n.d.SetPeriod(metrics.CPU, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := n.d.SetPeriod(metrics.Resource(99), time.Second); err == nil {
		t.Fatal("bad resource accepted")
	}
	if err := n.d.SetPeriod(metrics.CPU, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if n.d.Period(metrics.CPU) != 3*time.Second {
		t.Fatal("period not stored")
	}
}

func TestDifferentialSuppressesUnchangedValues(t *testing.T) {
	n := newSimNode(t, "alan")
	n.d.SetDifferential(15)
	now := n.clk.Now()
	// First poll: nothing ever sent, values are fresh → everything passes
	// (lastSent is 0, values nonzero).
	s1 := n.d.FilterSamples(now, n.d.CollectDue(now))
	if len(s1) == 0 {
		t.Fatal("first poll sent nothing")
	}
	// Second poll with identical values: all suppressed.
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	s2 := n.d.FilterSamples(now, n.d.CollectDue(now))
	if len(s2) != 0 {
		t.Fatalf("unchanged values passed the 15%% differential: %d samples", len(s2))
	}
	// Load jumps from 0 to 4: loadavg and dependent metrics now pass.
	n.host.AddTask(4)
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	s3 := n.d.FilterSamples(now, n.d.CollectDue(now))
	var ids []string
	foundLoad := false
	for _, s := range s3 {
		ids = append(ids, s.ID.String())
		if s.ID == metrics.LOADAVG {
			foundLoad = true
		}
	}
	if !foundLoad {
		t.Fatalf("loadavg change not sent; sent: %v", ids)
	}
}

func TestThresholdAboveGatesMetric(t *testing.T) {
	n := newSimNode(t, "alan")
	// Paper's example: report load average only when above 2.
	if err := n.d.AddThreshold(Threshold{Metric: metrics.LOADAVG, Kind: Above, A: 2}); err != nil {
		t.Fatal(err)
	}
	now := n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	for _, s := range sent {
		if s.ID == metrics.LOADAVG {
			t.Fatal("idle loadavg (0) sent despite above-2 threshold")
		}
	}
	// Other CPU metrics are not gated by the loadavg-specific threshold.
	foundRunq := false
	for _, s := range sent {
		if s.ID == metrics.RUNQUEUE {
			foundRunq = true
		}
	}
	if !foundRunq {
		t.Fatal("metric-specific threshold wrongly gated sibling metrics")
	}
	// Load rises above 2 → loadavg passes.
	n.host.AddTask(3)
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	sent = n.d.FilterSamples(now, n.d.CollectDue(now))
	found := false
	for _, s := range sent {
		if s.ID == metrics.LOADAVG && s.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("loadavg=3 not sent with above-2 threshold")
	}
}

func TestPeriodPlusThresholdCombination(t *testing.T) {
	// The paper: "update the CPU information once every 2 seconds IF the
	// CPU utilization is above 80%".
	n := newSimNode(t, "alan")
	if err := n.d.ApplyControlText("period cpu 2\nthreshold loadavg above 0.8"); err != nil {
		t.Fatal(err)
	}
	n.host.AddTask(1) // load 1.0 > 0.8
	sentTimes := 0
	for i := 0; i < 6; i++ {
		now := n.clk.Now()
		sent := n.d.FilterSamples(now, n.d.CollectDue(now))
		for _, s := range sent {
			if s.ID == metrics.LOADAVG {
				sentTimes++
			}
		}
		n.clk.Advance(time.Second)
	}
	if sentTimes != 3 { // every 2 s over 6 s
		t.Fatalf("loadavg sent %d times in 6s with 2s period, want 3", sentTimes)
	}
}

func TestDeployFilterPaperFigure3(t *testing.T) {
	n := newSimNode(t, "alan")
	filterSrc := `
{
  int i = 0;
  if(input[LOADAVG].value > 2){
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if(input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6){
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
}`
	if err := n.d.DeployFilter(0, true, filterSrc); err != nil {
		t.Fatal(err)
	}
	if !n.d.HasFilter() {
		t.Fatal("HasFilter = false after deploy")
	}
	// Idle host: loadavg 0, disk quiet, cache misses rising from 0 (last
	// sent 0, current positive) → only CACHE_MISS emitted.
	now := n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	if len(sent) != 1 || sent[0].ID != metrics.CACHE_MISS {
		ids := []string{}
		for _, s := range sent {
			ids = append(ids, s.ID.String())
		}
		t.Fatalf("filter output = %v, want [cache_miss]", ids)
	}
	// Load the host: loadavg passes too.
	n.host.AddTask(3)
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	sent = n.d.FilterSamples(now, n.d.CollectDue(now))
	var got []metrics.ID
	for _, s := range sent {
		got = append(got, s.ID)
	}
	wantLoad := false
	for _, id := range got {
		if id == metrics.LOADAVG {
			wantLoad = true
		}
	}
	if !wantLoad {
		t.Fatalf("loaded host output = %v, missing loadavg", got)
	}
}

func TestDeployFilterCompileErrorKeepsOld(t *testing.T) {
	n := newSimNode(t, "alan")
	good := "output[0] = input[LOADAVG];"
	if err := n.d.DeployFilter(0, true, good); err != nil {
		t.Fatal(err)
	}
	if err := n.d.DeployFilter(0, true, "$$$ garbage"); err == nil {
		t.Fatal("bad filter accepted")
	}
	if !n.d.HasFilter() {
		t.Fatal("failed deploy removed the working filter")
	}
	// Remove with empty source.
	if err := n.d.DeployFilter(0, true, ""); err != nil {
		t.Fatal(err)
	}
	if n.d.HasFilter() {
		t.Fatal("empty source did not remove filter")
	}
}

// A filter bomb — source over ecode's 64 KiB cap — is refused, keeps the
// working filter, and moves the node's filter_source_over_cap counter by
// exactly one per deployment; a filter that fails to compile for any other
// reason does not move it.
func TestDeployOversizeFilterCounted(t *testing.T) {
	n := newSimNode(t, "alan")
	reg := metrics.NewRegistry()
	n.d.SetMetrics(reg)
	overCap := func() uint64 {
		v, _ := reg.Value("dmon", "", "filter_source_over_cap")
		return v
	}
	if err := n.d.DeployFilter(0, true, "output[0] = input[LOADAVG];"); err != nil {
		t.Fatal(err)
	}
	bomb := "return " + strings.Repeat("(", 1<<16) + "1" + strings.Repeat(")", 1<<16) + ";"
	for i := uint64(1); i <= 2; i++ {
		if err := n.d.DeployFilter(0, true, bomb); err == nil || !n.d.HasFilter() {
			t.Fatalf("deployment %d of %d bytes: err %v, filter kept %t", i, len(bomb), err, n.d.HasFilter())
		}
		if got := overCap(); got != i {
			t.Fatalf("after %d oversize deployments filter_source_over_cap = %d", i, got)
		}
	}
	if err := n.d.DeployFilter(0, true, "$$$ garbage"); err == nil || overCap() != 2 {
		t.Fatalf("garbage source: err %v, filter_source_over_cap %d, want 2", err, overCap())
	}
}

func TestPerResourceFilterScoping(t *testing.T) {
	n := newSimNode(t, "alan")
	// CPU filter passes loadavg only when above 10 — idle host blocks it;
	// other resources flow untouched.
	if err := n.d.DeployFilter(metrics.CPU, false,
		"if (input[LOADAVG].value > 10) { output[0] = input[LOADAVG]; }"); err != nil {
		t.Fatal(err)
	}
	now := n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	var cpu, mem int
	for _, s := range sent {
		switch s.ID.Resource() {
		case metrics.CPU:
			cpu++
		case metrics.Memory:
			mem++
		}
	}
	if cpu != 0 {
		t.Fatalf("CPU filter leaked %d samples", cpu)
	}
	if mem == 0 {
		t.Fatal("memory metrics blocked by CPU-scoped filter")
	}
	// A filter writing out-of-scope metrics is clipped to its resource.
	if err := n.d.DeployFilter(metrics.CPU, false,
		"output[0] = input[FREEMEM];"); err != nil {
		t.Fatal(err)
	}
	n.clk.Advance(time.Second)
	now = n.clk.Now()
	sent = n.d.FilterSamples(now, n.d.CollectDue(now))
	for _, s := range sent {
		if s.ID == metrics.FREEMEM {
			// FREEMEM must appear exactly once (from MEM_MON pass-through),
			// not duplicated by the CPU filter.
			continue
		}
	}
	count := 0
	for _, s := range sent {
		if s.ID == metrics.FREEMEM {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("FREEMEM appeared %d times, want 1 (filter output clipped to scope)", count)
	}
}

func TestFilterRuntimeErrorFallsBackUnfiltered(t *testing.T) {
	n := newSimNode(t, "alan")
	// Filter with an out-of-bounds access fails at run time.
	if err := n.d.DeployFilter(0, true, "output[0] = input[9999];"); err != nil {
		t.Fatal(err)
	}
	now := n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	if len(sent) != standardMetricCount {
		t.Fatalf("fallback sent %d samples, want all %d", len(sent), standardMetricCount)
	}
	if n.d.FilterErrors() == 0 {
		t.Fatal("filter error not counted")
	}
}

func TestLastSentTracking(t *testing.T) {
	n := newSimNode(t, "alan")
	n.host.AddTask(2)
	now := n.clk.Now()
	sent := n.d.FilterSamples(now, n.d.CollectDue(now))
	if len(sent) == 0 {
		t.Fatal("nothing sent")
	}
	// Next collection must carry the previous values as LastSent.
	n.clk.Advance(time.Second)
	samples := n.d.CollectDue(n.clk.Now())
	for _, s := range samples {
		if s.ID == metrics.LOADAVG && s.LastSent != 2 {
			t.Fatalf("LOADAVG LastSent = %g, want 2", s.LastSent)
		}
	}
}

func TestBuildReportPadding(t *testing.T) {
	n := newSimNode(t, "alan")
	n.d.SetPadding(5000)
	r := n.d.BuildReport(n.clk.Now(), []metrics.Sample{{ID: metrics.LOADAVG, Value: 1}})
	if len(r.Padding) != 5000 {
		t.Fatalf("padding = %d", len(r.Padding))
	}
	if r.Size() < 5000 {
		t.Fatalf("report size = %d, want >= 5000 (Figure 7's 5KB events)", r.Size())
	}
	n.d.SetPadding(-1)
	r2 := n.d.BuildReport(n.clk.Now(), nil)
	if len(r2.Padding) != 0 {
		t.Fatal("negative padding not clamped")
	}
	if r2.Seq != r.Seq+1 {
		t.Fatalf("seq = %d after %d", r2.Seq, r.Seq)
	}
}

func TestPollOnceWithoutChannel(t *testing.T) {
	n := newSimNode(t, "alan")
	report, sent, err := n.d.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || sent != 0 {
		t.Fatalf("report=%v sent=%d", report, sent)
	}
	// Immediately again: nothing due.
	report, _, err = n.d.PollOnce()
	if err != nil || report != nil {
		t.Fatalf("second poll: report=%v err=%v", report, err)
	}
}

func TestApplyControlTextFullSession(t *testing.T) {
	n := newSimNode(t, "alan")
	text := strings.Join([]string{
		"period disk 4",
		"diff net 10",
		"threshold loadavg above 1",
		"filter all",
		"output[0] = input[LOADAVG];",
	}, "\n")
	if err := n.d.ApplyControlText(text); err != nil {
		t.Fatal(err)
	}
	if n.d.Period(metrics.Disk) != 4*time.Second {
		t.Fatal("period not applied")
	}
	if !n.d.HasFilter() {
		t.Fatal("filter not applied")
	}
	if err := n.d.ApplyControlText("bogus"); err == nil {
		t.Fatal("bad control text accepted")
	}
}

func TestControlEncodingRoundTrip(t *testing.T) {
	payload := EncodeControl("maui", "period cpu 2")
	target, text, err := DecodeControl(payload)
	if err != nil || target != "maui" || text != "period cpu 2" {
		t.Fatalf("decoded (%q, %q, %v)", target, text, err)
	}
	if _, _, err := DecodeControl([]byte{1, 2}); err == nil {
		t.Fatal("garbage control payload accepted")
	}
}

func TestStoreUpdateAndQuery(t *testing.T) {
	s := newStore(t)
	ts := clock.Epoch
	s.Update(&metrics.Report{
		Node: "maui", Seq: 1, Time: ts,
		Samples: []metrics.Sample{
			{ID: metrics.LOADAVG, Value: 1.5, Time: ts},
			{ID: metrics.FREEMEM, Value: 100e6, Time: ts},
		},
	})
	s.Update(&metrics.Report{
		Node: "maui", Seq: 2, Time: ts.Add(time.Second),
		Samples: []metrics.Sample{{ID: metrics.LOADAVG, Value: 2.5, Time: ts.Add(time.Second)}},
	})
	if v, ok := s.Value("maui", metrics.LOADAVG); !ok || v != 2.5 {
		t.Fatalf("Value = (%g, %v)", v, ok)
	}
	if v, ok := s.Value("maui", metrics.FREEMEM); !ok || v != 100e6 {
		t.Fatalf("older metric lost: (%g, %v)", v, ok)
	}
	if _, ok := s.Value("maui", metrics.NETRTT); ok {
		t.Fatal("absent metric reported present")
	}
	if _, ok := s.Value("etna", metrics.LOADAVG); ok {
		t.Fatal("absent node reported present")
	}
	nodes := s.Nodes()
	if len(nodes) != 1 || nodes[0] != "maui" {
		t.Fatalf("Nodes = %v", nodes)
	}
	ids := s.Metrics("maui")
	if len(ids) != 2 || ids[0] != metrics.LOADAVG || ids[1] != metrics.FREEMEM {
		t.Fatalf("Metrics = %v", ids)
	}
	last, count := s.LastReport("maui")
	if count != 2 || !last.Equal(ts.Add(time.Second)) {
		t.Fatalf("LastReport = (%v, %d)", last, count)
	}
	s.Forget("maui")
	if len(s.Nodes()) != 0 {
		t.Fatal("Forget did not remove node")
	}
}

func TestDynamicModuleRegistration(t *testing.T) {
	// The paper: new monitoring modules (e.g. battery power) can be added at
	// run time without restarting dproc.
	n := newSimNode(t, "alan")
	battery := 95.0
	n.d.Register(&Module{
		Name:     "BATTERY_MON",
		Resource: metrics.PMC, // piggybacks on an existing resource class
		Collect: func(now time.Time, dst []metrics.Sample) []metrics.Sample {
			return append(dst, metrics.Sample{ID: metrics.CYCLES, Value: battery, Time: now})
		},
	})
	if len(n.d.Modules()) != 6 {
		t.Fatalf("modules = %v", n.d.Modules())
	}
	samples := n.d.CollectDue(n.clk.Now())
	count := 0
	for _, s := range samples {
		if s.ID == metrics.CYCLES {
			count++
		}
	}
	if count != 2 { // one from PMC, one from BATTERY_MON
		t.Fatalf("CYCLES sampled %d times, want 2", count)
	}
}

// TestConcurrentPollsDoNotRace: PollOnce and FilterSamples share the E-code
// environment and d-mon's scratch; concurrent callers must take turns, not
// reset and fill each other's filter inputs and outputs mid-run.
func TestConcurrentPollsDoNotRace(t *testing.T) {
	clk := clock.NewReal()
	host := simres.NewHost("alan", clk, 1)
	host.SetNoise(0)
	host.AddTask(3)
	d := New("alan", clk, host)
	if err := d.DeployFilter(0, true, "output[0] = input[LOADAVG]; output[1] = input[FREEMEM];"); err != nil {
		t.Fatal(err)
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := d.SetPeriod(r, time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	const polls = 2000
	var published atomic.Int64
	errs := make(chan string, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				// The report is only valid until the next PollOnce, which
				// the other goroutine may be running: count it, no more. A
				// poll can also find nothing due when the other goroutine
				// collected at the same instant.
				report, _, err := d.PollOnce()
				if err != nil {
					errs <- err.Error()
					return
				}
				if report != nil {
					published.Add(1)
				}
				now := clk.Now()
				samples := d.CollectDue(now)
				if len(samples) == 0 {
					continue
				}
				sent := d.FilterSamples(now, samples)
				if len(sent) != 2 || sent[0].ID != metrics.LOADAVG || sent[1].ID != metrics.FREEMEM {
					errs <- fmt.Sprintf("FilterSamples returned %d samples, not the filter's [loadavg freemem]", len(sent))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if published.Load() == 0 {
		t.Fatal("no poll published")
	}
	if n := d.FilterErrors(); n != 0 {
		t.Fatalf("%d filter runs failed", n)
	}
}

// TestPollOnceAllocatesNothing: in steady state a whole poll — collect,
// thresholds, filter, report, own-store update — writes only into buffers
// the d-mon and its store already own. What remains is a tsdb chunk seal
// every few hundred samples per series, well under one per poll.
func TestPollOnceAllocatesNothing(t *testing.T) {
	n := newSimNode(t, "alan")
	n.host.AddTask(3)
	if err := n.d.DeployFilter(0, true, `
{
  int i = 0;
  if(input[LOADAVG].value > 2){ output[i] = input[LOADAVG]; i = i + 1; }
  if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){ output[i] = input[CACHE_MISS]; i = i + 1; }
  output[i] = input[FREEMEM];
}`); err != nil {
		t.Fatal(err)
	}
	for r := metrics.Resource(0); r < metrics.NumResources; r++ {
		if err := n.d.SetPeriod(r, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	poll := func() {
		n.clk.Advance(time.Millisecond)
		if report, _, err := n.d.PollOnce(); err != nil || report == nil {
			t.Fatalf("poll published nothing (err %v)", err)
		}
	}
	for i := 0; i < 1000; i++ {
		poll()
	}
	if allocs := testing.AllocsPerRun(10000, poll); allocs != 0 {
		t.Fatalf("PollOnce allocated %.0f times per poll in steady state", allocs)
	}
}
