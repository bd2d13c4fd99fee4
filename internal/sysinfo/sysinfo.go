// Package sysinfo reads live resource information from the Linux /proc
// filesystem. It is the user-space approximation of dproc's kernel data
// capture: where the paper's modules walk the kernel task list or call
// nr_free_pages, this package parses /proc/loadavg, /proc/meminfo,
// /proc/diskstats, /proc/net/dev and /proc/stat. Parsers are pure functions
// over file contents so they are testable without a live system; Read()
// binds them to the real /proc.
//
// Deterministic experiments use the synthetic host models in
// internal/simres instead; sysinfo backs the live daemon (cmd/dprocd).
package sysinfo

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Snapshot is one point-in-time reading of a host's resources. Counter
// fields (disk and network) are cumulative since boot; rates are obtained
// by differencing snapshots with RateTracker.
type Snapshot struct {
	// Load averages over 1, 5 and 15 minutes, and the run queue.
	Load1, Load5, Load15 float64
	Runnable, Procs      int

	// Memory in bytes.
	MemTotal, MemFree, MemAvailable uint64

	// Disk counters summed over physical devices (cumulative).
	DiskReads, DiskWrites       uint64
	SectorsRead, SectorsWritten uint64

	// Network byte counters summed over non-loopback interfaces (cumulative).
	NetRxBytes, NetTxBytes uint64

	// CPU jiffies (cumulative): busy excludes idle+iowait.
	CPUBusy, CPUTotal uint64
}

// procRoot allows tests to point the reader at a fake /proc.
var procRoot = "/proc"

// Read collects a snapshot from the live /proc filesystem.
func Read() (*Snapshot, error) {
	s := &Snapshot{}
	la, err := os.ReadFile(procRoot + "/loadavg")
	if err != nil {
		return nil, fmt.Errorf("sysinfo: %w", err)
	}
	if err := parseLoadAvgInto(s, string(la)); err != nil {
		return nil, err
	}
	mi, err := os.ReadFile(procRoot + "/meminfo")
	if err != nil {
		return nil, fmt.Errorf("sysinfo: %w", err)
	}
	if err := parseMemInfoInto(s, string(mi)); err != nil {
		return nil, err
	}
	// diskstats and net/dev may be absent in minimal containers; treat as zero.
	if ds, err := os.ReadFile(procRoot + "/diskstats"); err == nil {
		parseDiskStatsInto(s, string(ds))
	}
	if nd, err := os.ReadFile(procRoot + "/net/dev"); err == nil {
		parseNetDevInto(s, string(nd))
	}
	if st, err := os.ReadFile(procRoot + "/stat"); err == nil {
		parseStatInto(s, string(st))
	}
	return s, nil
}

func parseLoadAvgInto(s *Snapshot, content string) error {
	fields := strings.Fields(content)
	if len(fields) < 4 {
		return fmt.Errorf("sysinfo: malformed loadavg %q", content)
	}
	var err error
	if s.Load1, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("sysinfo: loadavg: %w", err)
	}
	if s.Load5, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return fmt.Errorf("sysinfo: loadavg: %w", err)
	}
	if s.Load15, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return fmt.Errorf("sysinfo: loadavg: %w", err)
	}
	rq := strings.SplitN(fields[3], "/", 2)
	if len(rq) == 2 {
		s.Runnable, _ = strconv.Atoi(rq[0])
		s.Procs, _ = strconv.Atoi(rq[1])
	}
	return nil
}

func parseMemInfoInto(s *Snapshot, content string) error {
	seen := 0
	for _, line := range strings.Split(content, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		key := strings.TrimSuffix(fields[0], ":")
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "MemTotal":
			s.MemTotal = kb * 1024
			seen++
		case "MemFree":
			s.MemFree = kb * 1024
			seen++
		case "MemAvailable":
			s.MemAvailable = kb * 1024
		}
	}
	if seen < 2 {
		return fmt.Errorf("sysinfo: meminfo missing MemTotal/MemFree")
	}
	if s.MemAvailable == 0 {
		s.MemAvailable = s.MemFree
	}
	return nil
}

// parseDiskStatsInto accumulates counters over physical devices, skipping
// partitions (heuristic: device names ending in a digit that also have a
// non-digit-suffixed parent are partitions; we instead skip ram/loop and
// count whole devices, identified by minor number 0 for common majors or
// name without trailing partition digits for sd/hd/vd/nvme).
func parseDiskStatsInto(s *Snapshot, content string) {
	for _, line := range strings.Split(content, "\n") {
		f := strings.Fields(line)
		if len(f) < 14 {
			continue
		}
		name := f[2]
		if strings.HasPrefix(name, "ram") || strings.HasPrefix(name, "loop") ||
			strings.HasPrefix(name, "dm-") || strings.HasPrefix(name, "zram") {
			continue
		}
		if isPartition(name) {
			continue
		}
		reads, _ := strconv.ParseUint(f[3], 10, 64)
		sectRead, _ := strconv.ParseUint(f[5], 10, 64)
		writes, _ := strconv.ParseUint(f[7], 10, 64)
		sectWritten, _ := strconv.ParseUint(f[9], 10, 64)
		s.DiskReads += reads
		s.SectorsRead += sectRead
		s.DiskWrites += writes
		s.SectorsWritten += sectWritten
	}
}

// isPartition reports whether a block device name looks like a partition
// (sda1, vdb2, nvme0n1p3, mmcblk0p1) rather than a whole device.
func isPartition(name string) bool {
	if strings.Contains(name, "p") &&
		(strings.HasPrefix(name, "nvme") || strings.HasPrefix(name, "mmcblk")) {
		// nvme0n1p1 / mmcblk0p2 are partitions; nvme0n1 / mmcblk0 are not.
		idx := strings.LastIndexByte(name, 'p')
		if idx > 0 && idx < len(name)-1 && allDigits(name[idx+1:]) {
			return true
		}
		return false
	}
	if strings.HasPrefix(name, "sd") || strings.HasPrefix(name, "hd") || strings.HasPrefix(name, "vd") {
		return len(name) > 0 && name[len(name)-1] >= '0' && name[len(name)-1] <= '9'
	}
	return false
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// parseNetDevInto accumulates rx/tx byte counters over non-loopback
// interfaces.
func parseNetDevInto(s *Snapshot, content string) {
	for _, line := range strings.Split(content, "\n") {
		idx := strings.IndexByte(line, ':')
		if idx < 0 {
			continue
		}
		name := strings.TrimSpace(line[:idx])
		if name == "lo" || name == "" {
			continue
		}
		f := strings.Fields(line[idx+1:])
		if len(f) < 16 {
			continue
		}
		rx, _ := strconv.ParseUint(f[0], 10, 64)
		tx, _ := strconv.ParseUint(f[8], 10, 64)
		s.NetRxBytes += rx
		s.NetTxBytes += tx
	}
}

// parseStatInto reads the aggregate cpu line of /proc/stat.
func parseStatInto(s *Snapshot, content string) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "cpu ") {
			continue
		}
		f := strings.Fields(line)
		// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
		var vals []uint64
		for _, col := range f[1:] {
			v, err := strconv.ParseUint(col, 10, 64)
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		var total, idle uint64
		for i, v := range vals {
			total += v
			if i == 3 || i == 4 { // idle + iowait
				idle += v
			}
		}
		s.CPUTotal = total
		s.CPUBusy = total - idle
		return
	}
}

// RateTracker converts cumulative snapshot counters into per-second rates by
// differencing successive snapshots.
type RateTracker struct {
	prev     *Snapshot
	prevTime float64 // seconds
}

// Rates holds per-second rates derived from two snapshots.
type Rates struct {
	DiskReadsPerSec, DiskWritesPerSec       float64
	SectorsReadPerSec, SectorsWrittenPerSec float64
	NetRxBitsPerSec, NetTxBitsPerSec        float64
	CPUUtilization                          float64 // 0..1
}

// Update ingests a snapshot taken at time t (seconds) and returns rates
// since the previous snapshot. The first call returns zero rates.
func (rt *RateTracker) Update(s *Snapshot, t float64) Rates {
	defer func() { rt.prev, rt.prevTime = s, t }()
	if rt.prev == nil {
		return Rates{}
	}
	dt := t - rt.prevTime
	if dt <= 0 {
		return Rates{}
	}
	du := func(cur, prev uint64) float64 {
		if cur < prev { // counter reset
			return 0
		}
		return float64(cur-prev) / dt
	}
	r := Rates{
		DiskReadsPerSec:      du(s.DiskReads, rt.prev.DiskReads),
		DiskWritesPerSec:     du(s.DiskWrites, rt.prev.DiskWrites),
		SectorsReadPerSec:    du(s.SectorsRead, rt.prev.SectorsRead),
		SectorsWrittenPerSec: du(s.SectorsWritten, rt.prev.SectorsWritten),
		NetRxBitsPerSec:      du(s.NetRxBytes, rt.prev.NetRxBytes) * 8,
		NetTxBitsPerSec:      du(s.NetTxBytes, rt.prev.NetTxBytes) * 8,
	}
	dTotal := float64(s.CPUTotal) - float64(rt.prev.CPUTotal)
	dBusy := float64(s.CPUBusy) - float64(rt.prev.CPUBusy)
	if dTotal > 0 {
		r.CPUUtilization = dBusy / dTotal
		if r.CPUUtilization < 0 {
			r.CPUUtilization = 0
		}
		if r.CPUUtilization > 1 {
			r.CPUUtilization = 1
		}
	}
	return r
}
