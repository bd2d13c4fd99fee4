package smartpointer

import (
	"time"

	"dproc/internal/clock"
	"dproc/internal/netsim"
	"dproc/internal/simres"
)

// DefaultDiskBps is the client disk's sustained write bandwidth in bits/s
// (20 MB/s, a 2003-era IDE disk's sequential rate).
const DefaultDiskBps = 160e6

// Client models a SmartPointer client: events arrive over the client's
// network link, wait in a processing queue served at a rate set by the
// host's available CPU share, and are committed to a disk whose bandwidth
// is finite. More than 99% of end-to-end time is spent in processing when
// the CPU is the bottleneck, matching the paper's Figure 9 observation.
type Client struct {
	Name string
	Host *simres.Host
	// BaseProcSec is the processing cost of one *full* frame on an idle
	// host.
	BaseProcSec float64
	// FullBytes is the full frame size the per-byte cost is normalized to.
	FullBytes int

	clk  clock.Clock
	disk *netsim.Link

	busyUntil   time.Time
	processed   uint64
	completions []time.Time
	latencies   []time.Duration

	// recent byte-rate tracking for the disk-activity metric.
	lastRecv time.Time
	byteRate float64
}

// NewClient builds a client on the given simulated host.
func NewClient(name string, clk clock.Clock, host *simres.Host, fullBytes int, baseProcSec float64) *Client {
	disk := netsim.NewLink(clk, DefaultDiskBps)
	return &Client{
		Name:        name,
		Host:        host,
		BaseProcSec: baseProcSec,
		FullBytes:   fullBytes,
		clk:         clk,
		disk:        disk,
	}
}

// Disk returns the client's disk queue model.
func (c *Client) Disk() *netsim.Link { return c.disk }

// ProcSeconds returns the modeled processing time for a payload of the
// given size and transform at the host's current CPU share.
func (c *Client) ProcSeconds(bytes int, t Transform) float64 {
	perByte := c.BaseProcSec / float64(c.FullBytes)
	return float64(bytes) * perByte * t.CostFactor() / c.Host.CPUShare()
}

// Receive models one event: network delivery, queued processing, and the
// disk commit. sendTime is when the server submitted the event. It returns
// the end-to-end latency (send → fully processed and committed).
func (c *Client) Receive(sendTime time.Time, bytes int, t Transform) time.Duration {
	netLat := c.Host.Link().Send(bytes)
	arrival := sendTime.Add(netLat)

	start := arrival
	if c.busyUntil.After(start) {
		start = c.busyUntil
	}
	proc := time.Duration(c.ProcSeconds(bytes, t) * float64(time.Second))
	procDone := start.Add(proc)
	// The disk commit is pipelined behind processing: it does not block the
	// CPU queue, but its own fluid queue adds latency once the disk
	// saturates.
	diskLat := c.disk.Send(bytes)
	done := procDone.Add(diskLat)
	c.busyUntil = procDone

	c.processed++
	c.completions = append(c.completions, done)
	lat := done.Sub(sendTime)
	c.latencies = append(c.latencies, lat)

	// Track the incoming byte rate for the DISK_MON metric (sectors/s).
	now := c.clk.Now()
	if !c.lastRecv.IsZero() {
		dt := now.Sub(c.lastRecv).Seconds()
		if dt > 0 {
			inst := float64(bytes) / dt
			c.byteRate = 0.7*c.byteRate + 0.3*inst
		}
	}
	c.lastRecv = now
	c.Host.SetDiskActivity(c.byteRate / 512)
	return lat
}

// Processed returns the number of events received so far.
func (c *Client) Processed() uint64 { return c.processed }

// Latencies returns the per-event end-to-end latencies.
func (c *Client) Latencies() []time.Duration { return c.latencies }

// MeanLatency returns the average latency of the last n events (all if
// n <= 0 or n exceeds the history).
func (c *Client) MeanLatency(n int) time.Duration {
	ls := c.latencies
	if n > 0 && n < len(ls) {
		ls = ls[len(ls)-n:]
	}
	if len(ls) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range ls {
		sum += l
	}
	return sum / time.Duration(len(ls))
}

// CompletedBy counts events fully processed no later than t.
func (c *Client) CompletedBy(t time.Time) int {
	n := 0
	for _, done := range c.completions {
		if !done.After(t) {
			n++
		}
	}
	return n
}

// RateOver returns the client's effective event rate (completions per
// second) over the window ending at end.
func (c *Client) RateOver(end time.Time, window time.Duration) float64 {
	startT := end.Add(-window)
	n := 0
	for _, done := range c.completions {
		if done.After(startT) && !done.After(end) {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// Info snapshots the monitoring view dproc would deliver about this client:
// CPU load, available network bandwidth, and disk activity.
func (c *Client) Info() ClientInfo {
	return ClientInfo{
		Load:              c.Host.LoadAvg(),
		CPUShare:          c.Host.CPUShare(),
		AvailBps:          c.Host.Link().CapacityBps() - c.Host.Link().Perturbation(),
		DiskSectorsPerSec: c.byteRate / 512,
		DiskCapBps:        c.disk.CapacityBps(),
		Valid:             true,
	}
}
