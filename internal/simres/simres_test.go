package simres

import (
	"math"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/netsim"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h := NewHost("alan", clock.NewVirtual(clock.Epoch), 1)
	h.SetNoise(0) // deterministic values for exact assertions
	return h
}

func TestIdleHostDefaults(t *testing.T) {
	h := newHost(t)
	if h.LoadAvg() != 0 {
		t.Fatalf("idle LoadAvg = %g", h.LoadAvg())
	}
	if h.MemTotal() != 512<<20 {
		t.Fatalf("MemTotal = %d, want 512MB (paper testbed)", h.MemTotal())
	}
	if h.FreeMem() != 512<<20-96<<20 {
		t.Fatalf("FreeMem = %d", h.FreeMem())
	}
	if h.CPUShare() != 1 {
		t.Fatalf("idle CPUShare = %g, want 1", h.CPUShare())
	}
}

func TestTasksRaiseLoadAndLowerShare(t *testing.T) {
	h := newHost(t)
	id1 := h.AddTask(1)
	id2 := h.AddTask(1)
	if h.LoadAvg() != 2 {
		t.Fatalf("LoadAvg with 2 tasks = %g", h.LoadAvg())
	}
	if got := h.CPUShare(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("CPUShare = %g, want 1/3", got)
	}
	h.RemoveTask(id1)
	h.RemoveTask(id2)
	h.RemoveTask(999) // unknown id ignored
	if h.LoadAvg() != 0 {
		t.Fatal("tasks not removed")
	}
}

func TestMemoryModel(t *testing.T) {
	h := newHost(t)
	free0 := h.FreeMem()
	h.AddTask(1)
	free1 := h.FreeMem()
	if free0-free1 != DefaultMemPerTask {
		t.Fatalf("task memory delta = %d, want %d", free0-free1, uint64(DefaultMemPerTask))
	}
	h.SetMemExtra(100 << 20)
	free2 := h.FreeMem()
	if free1-free2 != 100<<20 {
		t.Fatalf("extra mem delta = %d", free1-free2)
	}
	// Overcommit clamps to zero.
	h.SetMemExtra(1 << 40)
	if h.FreeMem() != 0 {
		t.Fatalf("overcommitted FreeMem = %d, want 0", h.FreeMem())
	}
}

func TestDiskModel(t *testing.T) {
	h := newHost(t)
	base := h.DiskUsage()
	h.SetDiskActivity(10000)
	if got := h.DiskUsage(); got != base+10000 {
		t.Fatalf("DiskUsage = %g, want %g", got, base+10000)
	}
	h.SetDiskActivity(-5)
	if h.DiskUsage() != base {
		t.Fatal("negative disk activity not clamped")
	}
}

func TestCacheMissScalesWithLoad(t *testing.T) {
	h := newHost(t)
	idle := h.CacheMissRate()
	h.AddTask(2)
	if got := h.CacheMissRate(); got <= idle {
		t.Fatalf("cache misses did not rise with load: %g vs %g", got, idle)
	}
}

func TestSampleCoversEveryMetric(t *testing.T) {
	h := newHost(t)
	h.AddTask(1)
	h.SetDiskActivity(8000)
	for _, id := range metrics.AllIDs() {
		v := h.Sample(id)
		if v < 0 {
			t.Errorf("Sample(%v) = %g, want >= 0", id, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("Sample(%v) = %g", id, v)
		}
	}
	// Spot checks.
	if h.Sample(metrics.LOADAVG) != 1 {
		t.Errorf("LOADAVG = %g", h.Sample(metrics.LOADAVG))
	}
	if h.Sample(metrics.DISKUSAGE) != 8050 {
		t.Errorf("DISKUSAGE = %g", h.Sample(metrics.DISKUSAGE))
	}
	if got := h.Sample(metrics.SECTORSREAD) + h.Sample(metrics.SECTORSWRITTEN); math.Abs(got-8050) > 1e-9 {
		t.Errorf("sector split does not sum to DISKUSAGE: %g", got)
	}
	if h.Sample(metrics.TOTALMEM) != float64(512<<20) {
		t.Errorf("TOTALMEM = %g", h.Sample(metrics.TOTALMEM))
	}
	if h.Sample(metrics.ID(9999)) != 0 {
		t.Error("unknown metric id should sample as 0")
	}
}

func TestNetworkMetricsReflectLink(t *testing.T) {
	h := newHost(t)
	h.Link().SetPerturbation(netsim.Mbps(40))
	if got := h.Sample(metrics.NETAVAIL); got != 60e6 {
		t.Fatalf("NETAVAIL = %g, want 60e6", got)
	}
	rttIdle := h.Sample(metrics.NETRTT)
	h.Link().SetPerturbation(netsim.Mbps(95))
	if got := h.Sample(metrics.NETRTT); got <= rttIdle {
		t.Fatalf("NETRTT did not rise with perturbation: %g vs %g", got, rttIdle)
	}
	if h.Sample(metrics.NETLOST) <= 0 {
		t.Fatal("NETLOST zero at 95% utilization")
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	h1 := NewHost("a", clk, 7)
	h2 := NewHost("a", clk, 7)
	h1.AddTask(1)
	h2.AddTask(1)
	for i := 0; i < 10; i++ {
		if h1.LoadAvg() != h2.LoadAvg() {
			t.Fatal("same seed produced different jitter streams")
		}
	}
	h3 := NewHost("a", clk, 8)
	h3.AddTask(1)
	same := true
	for i := 0; i < 10; i++ {
		if h1.LoadAvg() != h3.LoadAvg() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestNoiseBounds(t *testing.T) {
	h := NewHost("a", clock.NewVirtual(clock.Epoch), 3)
	h.SetNoise(0.02)
	h.AddTask(4) // true load 4.0
	for i := 0; i < 100; i++ {
		v := h.LoadAvg()
		if v < 4*0.98 || v > 4*1.02 {
			t.Fatalf("jittered load %g outside ±2%%", v)
		}
	}
}

func TestCPUShareFloor(t *testing.T) {
	h := newHost(t)
	for i := 0; i < 500; i++ {
		h.AddTask(1)
	}
	if got := h.CPUShare(); got != 0.01 {
		t.Fatalf("CPUShare floor = %g, want 0.01", got)
	}
}

func TestBatteryModel(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	h := NewHost("ipaq", clk, 1)
	h.SetNoise(0)
	// Mains-powered: always 100%, zero draw.
	if h.Battery() != 100 {
		t.Fatalf("mains battery = %g", h.Battery())
	}
	if h.PowerDraw() != 0 {
		t.Fatalf("mains draw = %g", h.PowerDraw())
	}
	h.EnableBattery(20, 2, 1) // 20 Wh, 2 W idle, +1 W per load
	if h.Battery() != 100 {
		t.Fatalf("fresh battery = %g", h.Battery())
	}
	if h.PowerDraw() != 2 {
		t.Fatalf("idle draw = %g", h.PowerDraw())
	}
	// One hour idle: 2 Wh of 20 Wh = 10%.
	clk.Advance(time.Hour)
	if got := h.Battery(); math.Abs(got-90) > 0.01 {
		t.Fatalf("battery after 1h idle = %g, want 90", got)
	}
	// Load raises the draw; four more hours at 6 W = 24 Wh → clamped to 0.
	h.AddTask(4)
	if h.PowerDraw() != 6 {
		t.Fatalf("loaded draw = %g", h.PowerDraw())
	}
	clk.Advance(4 * time.Hour)
	if got := h.Battery(); got != 0 {
		t.Fatalf("exhausted battery = %g, want 0", got)
	}
	if h.Sample(metrics.BATTERY) != 0 || h.Sample(metrics.POWERDRAW) != 6 {
		t.Fatal("power metrics not sampled")
	}
}

func TestSetBaseLoad(t *testing.T) {
	h := newHost(t)
	h.SetBaseLoad(1.5)
	if h.LoadAvg() != 1.5 {
		t.Fatalf("LoadAvg = %g", h.LoadAvg())
	}
	h.AddTask(1)
	if h.LoadAvg() != 2.5 {
		t.Fatalf("LoadAvg with task = %g", h.LoadAvg())
	}
}

func TestHostString(t *testing.T) {
	h := newHost(t)
	s := h.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}
