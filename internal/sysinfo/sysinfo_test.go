package sysinfo

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

const sampleLoadAvg = "0.52 0.48 0.44 2/345 12345\n"

const sampleMemInfo = `MemTotal:         524288 kB
MemFree:          131072 kB
MemAvailable:     262144 kB
Buffers:           10000 kB
Cached:            90000 kB
`

const sampleDiskStats = `   8       0 sda 120 30 2400 500 80 40 1600 300 0 700 800
   8       1 sda1 100 20 2000 400 70 30 1400 250 0 600 650
   8      16 sdb 50 10 1000 200 20 10 400 100 0 250 300
   7       0 loop0 5 0 40 1 0 0 0 0 0 1 1
 253       0 dm-0 99 0 999 9 9 9 99 9 0 9 9
 259       0 nvme0n1 10 0 80 5 10 0 80 5 0 10 10
 259       1 nvme0n1p1 9 0 72 4 9 0 72 4 0 9 9
`

const sampleNetDev = `Inter-|   Receive                                                |  Transmit
 face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed
    lo: 1000000    5000    0    0    0     0          0         0  1000000    5000    0    0    0     0       0          0
  eth0: 200000     1500    0    0    0     0          0         0   400000    2000    0    0    0     0       0          0
  eth1: 100000      800    0    0    0     0          0         0    50000     600    0    0    0     0       0          0
`

const sampleStat = `cpu  100 0 50 800 50 0 0 0 0 0
cpu0 50 0 25 400 25 0 0 0 0 0
intr 12345
`

func TestParseLoadAvg(t *testing.T) {
	var s Snapshot
	if err := parseLoadAvgInto(&s, sampleLoadAvg); err != nil {
		t.Fatal(err)
	}
	if s.Load1 != 0.52 || s.Load5 != 0.48 || s.Load15 != 0.44 {
		t.Fatalf("loads = %v %v %v", s.Load1, s.Load5, s.Load15)
	}
	if s.Runnable != 2 || s.Procs != 345 {
		t.Fatalf("runqueue = %d/%d", s.Runnable, s.Procs)
	}
}

func TestParseLoadAvgMalformed(t *testing.T) {
	if err := parseLoadAvgInto(&Snapshot{}, "garbage"); err == nil {
		t.Fatal("malformed loadavg accepted")
	}
	if err := parseLoadAvgInto(&Snapshot{}, "a b c 1/2 3"); err == nil {
		t.Fatal("non-numeric loadavg accepted")
	}
}

func TestParseMemInfo(t *testing.T) {
	var s Snapshot
	if err := parseMemInfoInto(&s, sampleMemInfo); err != nil {
		t.Fatal(err)
	}
	if s.MemTotal != 524288*1024 || s.MemFree != 131072*1024 || s.MemAvailable != 262144*1024 {
		t.Fatalf("mem = %d %d %d", s.MemTotal, s.MemFree, s.MemAvailable)
	}
}

func TestParseMemInfoWithoutAvailableFallsBackToFree(t *testing.T) {
	content := "MemTotal: 1000 kB\nMemFree: 400 kB\n"
	var s Snapshot
	if err := parseMemInfoInto(&s, content); err != nil {
		t.Fatal(err)
	}
	if s.MemAvailable != s.MemFree {
		t.Fatalf("avail = %d, want fallback to free %d", s.MemAvailable, s.MemFree)
	}
}

func TestParseMemInfoMissingFields(t *testing.T) {
	if err := parseMemInfoInto(&Snapshot{}, "Cached: 90000 kB\n"); err == nil {
		t.Fatal("meminfo without MemTotal accepted")
	}
}

func TestParseDiskStatsSkipsPartitionsAndVirtual(t *testing.T) {
	var s Snapshot
	parseDiskStatsInto(&s, sampleDiskStats)
	// Whole devices: sda (120r/2400sr/80w/1600sw), sdb (50/1000/20/400),
	// nvme0n1 (10/80/10/80). Partitions sda1, nvme0n1p1, loop0, dm-0 skipped.
	if s.DiskReads != 180 {
		t.Errorf("DiskReads = %d, want 180", s.DiskReads)
	}
	if s.SectorsRead != 3480 {
		t.Errorf("SectorsRead = %d, want 3480", s.SectorsRead)
	}
	if s.DiskWrites != 110 {
		t.Errorf("DiskWrites = %d, want 110", s.DiskWrites)
	}
	if s.SectorsWritten != 2080 {
		t.Errorf("SectorsWritten = %d, want 2080", s.SectorsWritten)
	}
}

func TestIsPartition(t *testing.T) {
	cases := map[string]bool{
		"sda": false, "sda1": true, "sdb12": true,
		"vda": false, "vda1": true, "hdc": false, "hdc2": true,
		"nvme0n1": false, "nvme0n1p1": true, "nvme1n2p12": true,
		"mmcblk0": false, "mmcblk0p1": true,
	}
	for name, want := range cases {
		if got := isPartition(name); got != want {
			t.Errorf("isPartition(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseNetDevSkipsLoopback(t *testing.T) {
	var s Snapshot
	parseNetDevInto(&s, sampleNetDev)
	if s.NetRxBytes != 300000 {
		t.Errorf("NetRxBytes = %d, want 300000", s.NetRxBytes)
	}
	if s.NetTxBytes != 450000 {
		t.Errorf("NetTxBytes = %d, want 450000", s.NetTxBytes)
	}
}

func TestParseStat(t *testing.T) {
	var s Snapshot
	parseStatInto(&s, sampleStat)
	if s.CPUTotal != 1000 {
		t.Errorf("CPUTotal = %d, want 1000", s.CPUTotal)
	}
	if s.CPUBusy != 150 { // 1000 - (800 idle + 50 iowait)
		t.Errorf("CPUBusy = %d, want 150", s.CPUBusy)
	}
}

func TestRateTracker(t *testing.T) {
	rt := &RateTracker{}
	s1 := &Snapshot{DiskReads: 100, SectorsWritten: 1000, NetTxBytes: 0, CPUBusy: 100, CPUTotal: 1000}
	s2 := &Snapshot{DiskReads: 150, SectorsWritten: 3000, NetTxBytes: 125000, CPUBusy: 150, CPUTotal: 1100}
	if r := rt.Update(s1, 10); r.DiskReadsPerSec != 0 {
		t.Fatalf("first update gave nonzero rates: %+v", r)
	}
	r := rt.Update(s2, 12) // dt = 2s
	if r.DiskReadsPerSec != 25 {
		t.Errorf("DiskReadsPerSec = %g, want 25", r.DiskReadsPerSec)
	}
	if r.SectorsWrittenPerSec != 1000 {
		t.Errorf("SectorsWrittenPerSec = %g, want 1000", r.SectorsWrittenPerSec)
	}
	if r.NetTxBitsPerSec != 500000 {
		t.Errorf("NetTxBitsPerSec = %g, want 500000", r.NetTxBitsPerSec)
	}
	if math.Abs(r.CPUUtilization-0.5) > 1e-9 {
		t.Errorf("CPUUtilization = %g, want 0.5", r.CPUUtilization)
	}
}

func TestRateTrackerCounterReset(t *testing.T) {
	rt := &RateTracker{}
	rt.Update(&Snapshot{DiskReads: 1000}, 0)
	r := rt.Update(&Snapshot{DiskReads: 10}, 1) // counter went backwards
	if r.DiskReadsPerSec != 0 {
		t.Fatalf("reset counter produced rate %g, want 0", r.DiskReadsPerSec)
	}
}

func TestRateTrackerNonPositiveDT(t *testing.T) {
	rt := &RateTracker{}
	rt.Update(&Snapshot{DiskReads: 100}, 5)
	if r := rt.Update(&Snapshot{DiskReads: 200}, 5); r.DiskReadsPerSec != 0 {
		t.Fatalf("dt=0 produced rate %g", r.DiskReadsPerSec)
	}
}

func TestReadFromFakeProc(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(rel, content string) {
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("loadavg", sampleLoadAvg)
	writeFile("meminfo", sampleMemInfo)
	writeFile("diskstats", sampleDiskStats)
	writeFile("net/dev", sampleNetDev)
	writeFile("stat", sampleStat)

	old := procRoot
	procRoot = dir
	defer func() { procRoot = old }()

	s, err := Read()
	if err != nil {
		t.Fatal(err)
	}
	if s.Load1 != 0.52 || s.MemTotal != 524288*1024 || s.DiskReads != 180 ||
		s.NetRxBytes != 300000 || s.CPUTotal != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestReadMissingLoadavgFails(t *testing.T) {
	old := procRoot
	procRoot = t.TempDir()
	defer func() { procRoot = old }()
	if _, err := Read(); err == nil {
		t.Fatal("Read with empty proc root succeeded")
	}
}

func TestReadLiveProcIfPresent(t *testing.T) {
	if _, err := os.Stat("/proc/loadavg"); err != nil {
		t.Skip("no live /proc on this system")
	}
	s, err := Read()
	if err != nil {
		t.Fatal(err)
	}
	if s.MemTotal == 0 {
		t.Fatal("live read returned zero MemTotal")
	}
	if s.Load1 < 0 {
		t.Fatal("negative load")
	}
}
