// Package metrics defines the monitored quantities exchanged by dproc nodes:
// metric identifiers (stable indices so E-code filters can reference
// input[LOADAVG] exactly as in the paper's Figure 3), individual samples,
// and the per-poll report that d-mon submits to the monitoring channel.
package metrics

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"dproc/internal/wire"
)

// ID identifies one monitored quantity. The numeric values are part of the
// filter ABI: E-code filters index the input[] record array by these
// constants, so they are stable across nodes.
type ID int

// Metric identifiers, grouped by the monitoring module that produces them.
const (
	// CPU_MON: average run-queue length over the configured window.
	LOADAVG ID = iota
	// CPU_MON: number of runnable tasks at the last sample.
	RUNQUEUE
	// MEM_MON: free memory in bytes (paper: nr_free_pages).
	FREEMEM
	// MEM_MON: total memory in bytes.
	TOTALMEM
	// DISK_MON: average reads completed per second over the period.
	DISKREADS
	// DISK_MON: average writes completed per second over the period.
	DISKWRITES
	// DISK_MON: average sectors read per second over the period.
	SECTORSREAD
	// DISK_MON: average sectors written per second over the period.
	SECTORSWRITTEN
	// DISK_MON: combined sectors moved per second (the paper's "disk usage").
	DISKUSAGE
	// NET_MON: used bandwidth across all connections, bits per second.
	NETBW
	// NET_MON: available bandwidth estimate on the node's link, bits/s.
	NETAVAIL
	// NET_MON: mean round-trip time across established connections, seconds.
	NETRTT
	// NET_MON: TCP retransmissions per second.
	NETRETRANS
	// NET_MON: UDP messages lost per second.
	NETLOST
	// NET_MON: mean end-to-end delay, seconds.
	NETDELAY
	// PMC: cache misses per second (performance monitoring counter).
	CACHE_MISS
	// PMC: retired instructions per second.
	INSTRUCTIONS
	// PMC: unhalted cycles per second.
	CYCLES
	// POWER_MON: remaining battery capacity, percent. The paper's example
	// of monitoring functionality deployed dynamically for mobile devices
	// ("the current battery power in mobile devices"); its conclusions make
	// power a first-class resource for the wireless/embedded future work.
	BATTERY
	// POWER_MON: present power draw, watts.
	POWERDRAW

	// NumIDs is the size of the metric ID space (and of filter input arrays).
	NumIDs
)

// Resource is the coarse resource class a metric belongs to; parameters and
// control files address metrics by resource (e.g. "update the CPU info every
// 2 seconds").
type Resource int

// Resource classes, one per monitoring module in the paper's Figure 2.
const (
	CPU Resource = iota
	Memory
	Disk
	Network
	PMC
	Power
	NumResources
)

var resourceNames = [NumResources]string{"cpu", "mem", "disk", "net", "pmc", "power"}

// String returns the lower-case resource name used in control files.
func (r Resource) String() string {
	if r < 0 || r >= NumResources {
		return fmt.Sprintf("resource(%d)", int(r))
	}
	return resourceNames[r]
}

// ParseResource maps a control-file resource name to its Resource.
func ParseResource(name string) (Resource, bool) {
	for r, n := range resourceNames {
		if n == name {
			return Resource(r), true
		}
	}
	return 0, false
}

type idInfo struct {
	name     string // pseudo-file / filter symbol name
	resource Resource
	unit     string
}

var idTable = [NumIDs]idInfo{
	LOADAVG:        {"loadavg", CPU, "tasks"},
	RUNQUEUE:       {"runqueue", CPU, "tasks"},
	FREEMEM:        {"freemem", Memory, "bytes"},
	TOTALMEM:       {"totalmem", Memory, "bytes"},
	DISKREADS:      {"diskreads", Disk, "ops/s"},
	DISKWRITES:     {"diskwrites", Disk, "ops/s"},
	SECTORSREAD:    {"sectorsread", Disk, "sectors/s"},
	SECTORSWRITTEN: {"sectorswritten", Disk, "sectors/s"},
	DISKUSAGE:      {"diskusage", Disk, "sectors/s"},
	NETBW:          {"netbw", Network, "bits/s"},
	NETAVAIL:       {"netavail", Network, "bits/s"},
	NETRTT:         {"netrtt", Network, "s"},
	NETRETRANS:     {"netretrans", Network, "ops/s"},
	NETLOST:        {"netlost", Network, "ops/s"},
	NETDELAY:       {"netdelay", Network, "s"},
	CACHE_MISS:     {"cache_miss", PMC, "misses/s"},
	INSTRUCTIONS:   {"instructions", PMC, "ops/s"},
	CYCLES:         {"cycles", PMC, "cycles/s"},
	BATTERY:        {"battery", Power, "%"},
	POWERDRAW:      {"powerdraw", Power, "W"},
}

// Valid reports whether id is a defined metric identifier.
func (id ID) Valid() bool { return id >= 0 && id < NumIDs }

// String returns the metric's pseudo-file name (e.g. "loadavg").
func (id ID) String() string {
	if !id.Valid() {
		return fmt.Sprintf("metric(%d)", int(id))
	}
	return idTable[id].name
}

// Resource returns the resource class the metric belongs to.
func (id ID) Resource() Resource {
	if !id.Valid() {
		return NumResources
	}
	return idTable[id].resource
}

// Unit returns the human-readable unit for the metric.
func (id ID) Unit() string {
	if !id.Valid() {
		return ""
	}
	return idTable[id].unit
}

// FilterSymbol returns the upper-case constant name exposed to E-code
// filters, e.g. LOADAVG or CACHE_MISS.
var filterSymbols = func() map[ID]string {
	m := make(map[ID]string, NumIDs)
	m[LOADAVG] = "LOADAVG"
	m[RUNQUEUE] = "RUNQUEUE"
	m[FREEMEM] = "FREEMEM"
	m[TOTALMEM] = "TOTALMEM"
	m[DISKREADS] = "DISKREADS"
	m[DISKWRITES] = "DISKWRITES"
	m[SECTORSREAD] = "SECTORSREAD"
	m[SECTORSWRITTEN] = "SECTORSWRITTEN"
	m[DISKUSAGE] = "DISKUSAGE"
	m[NETBW] = "NETBW"
	m[NETAVAIL] = "NETAVAIL"
	m[NETRTT] = "NETRTT"
	m[NETRETRANS] = "NETRETRANS"
	m[NETLOST] = "NETLOST"
	m[NETDELAY] = "NETDELAY"
	m[CACHE_MISS] = "CACHE_MISS"
	m[INSTRUCTIONS] = "INSTRUCTIONS"
	m[CYCLES] = "CYCLES"
	m[BATTERY] = "BATTERY"
	m[POWERDRAW] = "POWERDRAW"
	return m
}()

// FilterSymbol returns the constant name visible inside E-code filters.
func (id ID) FilterSymbol() string { return filterSymbols[id] }

// FilterSymbols returns the full symbol→index map handed to the E-code
// compiler, sorted deterministically for reproducible compilation.
func FilterSymbols() map[string]int {
	m := make(map[string]int, NumIDs)
	for id, name := range filterSymbols {
		m[name] = int(id)
	}
	return m
}

// ParseID maps a pseudo-file name (e.g. "loadavg") to its ID.
func ParseID(name string) (ID, bool) {
	for i := ID(0); i < NumIDs; i++ {
		if idTable[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// IDsForResource returns all metric IDs belonging to resource r, in ID order.
func IDsForResource(r Resource) []ID {
	var out []ID
	for i := ID(0); i < NumIDs; i++ {
		if idTable[i].resource == r {
			out = append(out, i)
		}
	}
	return out
}

// AllIDs returns every defined metric ID in order.
func AllIDs() []ID {
	out := make([]ID, NumIDs)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// Sample is one monitored value at one instant, together with the last value
// that was actually sent to the channel — the `last_value_sent` field that
// E-code filters and the differential threshold compare against.
type Sample struct {
	ID       ID
	Value    float64
	LastSent float64
	Time     time.Time
}

// Report is the batch of samples one d-mon submits in one poll iteration.
// Padding emulates the paper's variable event sizes (Figure 7 uses ~5 KB
// events) without inventing extra metrics.
type Report struct {
	Node    string
	Seq     uint64
	Time    time.Time
	Samples []Sample
	Padding []byte
}

// sampleWireSize is the encoded size of one Sample: a 2-byte ID, then
// Value, LastSent and Time at 8 bytes each.
const sampleWireSize = 2 + 8 + 8 + 8

// Size returns the encoded size of the report in bytes.
func (r *Report) Size() int {
	return 4 + len(r.Node) + 8 + 8 + 4 + sampleWireSize*len(r.Samples) + 4 + len(r.Padding)
}

// Encode serializes the report with the wire codec into a new buffer.
func (r *Report) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, 64+32*len(r.Samples)+len(r.Padding)))
}

// AppendEncode appends the report's encoding (the bytes Encode returns) to
// dst and returns the extended buffer, so a caller that keeps its own
// scratch encodes without allocating.
func (r *Report) AppendEncode(dst []byte) []byte {
	dst = wire.AppendString(dst, r.Node)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Time.UnixNano()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Samples)))
	for i := range r.Samples {
		s := &r.Samples[i]
		dst = binary.BigEndian.AppendUint16(dst, uint16(s.ID))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Value))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.LastSent))
		dst = binary.BigEndian.AppendUint64(dst, uint64(s.Time.UnixNano()))
	}
	return wire.AppendBytesField(dst, r.Padding)
}

// DecodeReport parses a report previously produced by Encode into a new
// Report that shares nothing with buf.
func DecodeReport(buf []byte) (*Report, error) {
	r := &Report{}
	if err := DecodeReportInto(r, buf); err != nil {
		return nil, err
	}
	r.Padding = bytes.Clone(r.Padding)
	return r, nil
}

// DecodeReportInto parses a report into r, reusing what r already holds: the
// Samples array when its capacity suffices, and the Node string when the
// encoded name is unchanged. r.Padding aliases buf, so it is valid only as
// long as buf is. A sample count the remaining bytes cannot hold is refused
// before anything is sized by it. On error r's contents are unspecified.
func DecodeReportInto(r *Report, buf []byte) error {
	d := wire.NewDecoder(buf)
	node := d.StringBytes()
	r.Seq = d.Uint64()
	r.Time = d.Time()
	n := d.Uint32()
	// Each sample takes sampleWireSize bytes and the padding's length 4 more.
	if d.Err() == nil && uint64(n)*sampleWireSize+4 > uint64(d.Remaining()) {
		return fmt.Errorf("metrics: implausible sample count %d for %d remaining bytes", n, d.Remaining())
	}
	if string(node) != r.Node {
		r.Node = string(node)
	}
	if r.Samples == nil || cap(r.Samples) < int(n) {
		r.Samples = make([]Sample, n) // never nil, even for no samples
	}
	r.Samples = r.Samples[:n]
	for i := range r.Samples {
		r.Samples[i] = Sample{
			ID:       ID(d.Uint16()),
			Value:    d.Float64(),
			LastSent: d.Float64(),
			Time:     d.Time(),
		}
	}
	r.Padding = d.BytesFieldView()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("metrics: decoding report: %w", err)
	}
	for i := range r.Samples {
		if id := r.Samples[i].ID; !id.Valid() {
			return fmt.Errorf("metrics: invalid metric id %d in report", int(id))
		}
	}
	return nil
}

// ByID returns the sample for id, if present.
func (r *Report) ByID(id ID) (Sample, bool) {
	for _, s := range r.Samples {
		if s.ID == id {
			return s, true
		}
	}
	return Sample{}, false
}

// SortSamples orders samples by ID for deterministic output.
func (r *Report) SortSamples() {
	sort.Slice(r.Samples, func(i, j int) bool { return r.Samples[i].ID < r.Samples[j].ID })
}
