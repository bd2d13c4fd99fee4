// Package simres provides deterministic synthetic host resource models for
// the reproduction's experiments. The paper measures an 8-node cluster of
// quad Pentium Pro 200 MHz machines with 512 MB RAM on 100 Mbps Ethernet;
// since that hardware (and kernel instrumentation) is unavailable, each
// simulated Host exposes the same observables dproc's kernel modules
// capture — run-queue length, free memory, disk sector rates, network
// bandwidth/RTT/loss, and PMC cache-miss counters — driven by injectable
// workloads (linpack threads, disk activity, stream traffic) and a seeded
// noise source so experiments are reproducible bit-for-bit.
package simres

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/netsim"
)

// Defaults matching the paper's testbed nodes.
const (
	// DefaultMemTotal is 512 MB, the paper's node RAM.
	DefaultMemTotal = 512 << 20
	// DefaultMemBase is the memory used by an idle node.
	DefaultMemBase = 96 << 20
	// DefaultMemPerTask is the working set each injected task consumes.
	DefaultMemPerTask = 24 << 20
	// baselineMflops approximates one Pentium Pro 200 MHz core running
	// linpack (the paper's Figure 4 measures ~17.4 Mflops).
	baselineMflops = 17.4
)

// Host is one simulated cluster node. All methods are safe for concurrent
// use.
type Host struct {
	name string
	clk  clock.Clock
	link *netsim.Link

	mu          sync.Mutex
	rng         *rand.Rand
	noise       float64 // relative noise amplitude, e.g. 0.02
	baseLoad    float64
	nextTaskID  int
	tasks       map[int]float64 // task id -> run-queue contribution
	memTotal    uint64
	memBase     uint64
	memPerTask  uint64
	memExtra    uint64  // extra allocation set by the application model
	diskBase    float64 // idle sectors/s
	diskExtra   float64 // workload-driven sectors/s
	pmcBasePerS float64 // idle cache misses/s
	monitorCost float64 // CPU fraction consumed by monitoring itself

	// Battery model (mobile hosts): percentage remaining, drained over
	// simulated time by a load-dependent power draw.
	batteryPct   float64
	batteryWh    float64 // capacity; <= 0 means mains-powered
	idleWatts    float64
	wattsPerLoad float64
	lastDrain    time.Time
}

// NewHost creates a simulated node with the paper's defaults. seed controls
// the deterministic noise stream.
func NewHost(name string, clk clock.Clock, seed int64) *Host {
	return &Host{
		name:        name,
		clk:         clk,
		link:        netsim.NewLink(clk, 0),
		rng:         rand.New(rand.NewSource(seed)),
		noise:       0.02,
		tasks:       map[int]float64{},
		memTotal:    DefaultMemTotal,
		memBase:     DefaultMemBase,
		memPerTask:  DefaultMemPerTask,
		diskBase:    50,
		pmcBasePerS: 2e5,
	}
}

// Name returns the node name.
func (h *Host) Name() string { return h.name }

// Link returns the host's network link model.
func (h *Host) Link() *netsim.Link { return h.link }

// SetNoise sets the relative noise amplitude (0 disables jitter entirely).
func (h *Host) SetNoise(amp float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.noise = amp
}

// jitterLocked multiplies v by (1 ± noise), deterministically.
func (h *Host) jitterLocked(v float64) float64 {
	if h.noise == 0 {
		return v
	}
	return v * (1 + h.noise*(2*h.rng.Float64()-1))
}

// AddTask injects a CPU-bound task (e.g. one linpack thread) contributing
// `load` to the run queue; returns a handle for RemoveTask.
func (h *Host) AddTask(load float64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextTaskID
	h.nextTaskID++
	h.tasks[id] = load
	return id
}

// RemoveTask removes a previously injected task; unknown IDs are ignored.
func (h *Host) RemoveTask(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.tasks, id)
}

// TaskCount returns the number of injected tasks.
func (h *Host) TaskCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.tasks)
}

// SetBaseLoad sets the idle run-queue length (background daemons).
func (h *Host) SetBaseLoad(load float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.baseLoad = load
}

// SetMonitorCost sets the CPU fraction consumed by monitoring activity on
// this host (used by the Figure 4 perturbation model).
func (h *Host) SetMonitorCost(frac float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if frac < 0 {
		frac = 0
	}
	h.monitorCost = frac
}

func (h *Host) loadLocked() float64 {
	load := h.baseLoad
	for _, l := range h.tasks {
		load += l
	}
	return load
}

// LoadAvg returns the current run-queue length (with jitter).
func (h *Host) LoadAvg() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jitterLocked(h.loadLocked())
}

// CPUShare returns the CPU fraction available to one additional
// compute-bound process: a processor-sharing model where the new process
// competes with the current run queue, less the monitoring overhead.
func (h *Host) CPUShare() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	share := (1 - h.monitorCost) / (1 + h.loadLocked())
	if share < 0.01 {
		share = 0.01
	}
	return share
}

// Mflops returns the linpack throughput a benchmark process would measure
// on this host right now: the baseline scaled by the available CPU share
// relative to an idle machine.
func (h *Host) Mflops() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	idleShare := 1.0 / (1 + h.baseLoad)
	share := (1 - h.monitorCost) / (1 + h.loadLocked())
	return baselineMflops * share / idleShare
}

// SetMemExtra sets application-driven memory use beyond base + tasks.
func (h *Host) SetMemExtra(bytes uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.memExtra = bytes
}

// FreeMem returns the free memory in bytes.
func (h *Host) FreeMem() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	used := h.memBase + h.memExtra + uint64(len(h.tasks))*h.memPerTask
	if used >= h.memTotal {
		return 0
	}
	free := h.memTotal - used
	return uint64(h.jitterLocked(float64(free)))
}

// MemTotal returns the configured RAM size.
func (h *Host) MemTotal() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.memTotal
}

// SetDiskActivity sets the workload-driven disk rate in sectors/second.
func (h *Host) SetDiskActivity(sectorsPerSec float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sectorsPerSec < 0 {
		sectorsPerSec = 0
	}
	h.diskExtra = sectorsPerSec
}

// DiskUsage returns the combined sector rate (the paper's "disk usage").
func (h *Host) DiskUsage() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jitterLocked(h.diskBase + h.diskExtra)
}

// CacheMissRate returns the PMC cache-miss rate, which scales with CPU
// activity: busy hosts touch more cache lines.
func (h *Host) CacheMissRate() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jitterLocked(h.pmcBasePerS * (1 + 4*h.loadLocked()))
}

// EnableBattery turns the host into a battery-powered (mobile) device with
// the given capacity in watt-hours. Power draw is idleWatts plus
// wattsPerLoad for every unit of run-queue load, and the battery drains
// with simulated time — the paper's future-work scenario where "power has
// to be considered a first-class resource".
func (h *Host) EnableBattery(capacityWh, idleWatts, wattsPerLoad float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.batteryWh = capacityWh
	h.batteryPct = 100
	h.idleWatts = idleWatts
	h.wattsPerLoad = wattsPerLoad
	h.lastDrain = h.clk.Now()
}

// powerDrawLocked is the current draw in watts.
func (h *Host) powerDrawLocked() float64 {
	return h.idleWatts + h.wattsPerLoad*h.loadLocked()
}

// drainBatteryLocked integrates the draw since the last call.
func (h *Host) drainBatteryLocked() {
	if h.batteryWh <= 0 {
		return
	}
	now := h.clk.Now()
	dt := now.Sub(h.lastDrain)
	if dt <= 0 {
		return
	}
	h.lastDrain = now
	usedWh := h.powerDrawLocked() * dt.Hours()
	h.batteryPct -= usedWh / h.batteryWh * 100
	if h.batteryPct < 0 {
		h.batteryPct = 0
	}
}

// Battery returns the remaining battery percentage (100 for mains-powered
// hosts).
func (h *Host) Battery() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.batteryWh <= 0 {
		return 100
	}
	h.drainBatteryLocked()
	return h.batteryPct
}

// PowerDraw returns the present draw in watts.
func (h *Host) PowerDraw() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.powerDrawLocked()
}

// Sample returns the current value of any metric, implementing the source
// interface d-mon's monitoring modules poll.
func (h *Host) Sample(id metrics.ID) float64 {
	switch id {
	case metrics.LOADAVG:
		return h.LoadAvg()
	case metrics.RUNQUEUE:
		h.mu.Lock()
		defer h.mu.Unlock()
		return math.Round(h.loadLocked())
	case metrics.FREEMEM:
		return float64(h.FreeMem())
	case metrics.TOTALMEM:
		return float64(h.MemTotal())
	case metrics.DISKREADS:
		return h.DiskUsage() * 0.4 / 8 // reads/s: 40% of sectors, 8 sectors/op
	case metrics.DISKWRITES:
		return h.DiskUsage() * 0.6 / 8
	case metrics.SECTORSREAD:
		return h.DiskUsage() * 0.4
	case metrics.SECTORSWRITTEN:
		return h.DiskUsage() * 0.6
	case metrics.DISKUSAGE:
		return h.DiskUsage()
	case metrics.NETBW:
		return h.link.UsedBps()
	case metrics.NETAVAIL:
		return h.link.AvailableBps()
	case metrics.NETRTT:
		return h.link.RTT().Seconds()
	case metrics.NETRETRANS:
		return h.link.LossRate() * 100 // retransmissions track loss
	case metrics.NETLOST:
		return h.link.LossRate() * 100
	case metrics.NETDELAY:
		return h.link.RTT().Seconds() / 2
	case metrics.BATTERY:
		return h.Battery()
	case metrics.POWERDRAW:
		return h.PowerDraw()
	case metrics.CACHE_MISS:
		return h.CacheMissRate()
	case metrics.INSTRUCTIONS:
		h.mu.Lock()
		defer h.mu.Unlock()
		return 2e8 * (h.loadLocked() + 0.05) // ~200 MHz-class issue rate
	case metrics.CYCLES:
		return 2e8
	}
	return 0
}

// String summarizes the host state.
func (h *Host) String() string {
	return fmt.Sprintf("%s(load=%.2f free=%dMB disk=%.0fsec/s)",
		h.name, h.LoadAvg(), h.FreeMem()>>20, h.DiskUsage())
}

// Cluster is a convenience container building n hosts with distinct seeds.
type Cluster struct {
	Hosts []*Host
}

// NewCluster creates n hosts named node0..node{n-1} sharing the clock.
func NewCluster(n int, clk clock.Clock, seed int64) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.Hosts = append(c.Hosts, NewHost(fmt.Sprintf("node%d", i), clk, seed+int64(i)*7919))
	}
	return c
}

// Host returns the i-th host.
func (c *Cluster) Host(i int) *Host { return c.Hosts[i] }

// Size returns the number of hosts.
func (c *Cluster) Size() int { return len(c.Hosts) }
