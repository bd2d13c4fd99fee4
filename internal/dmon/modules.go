package dmon

import (
	"time"

	"dproc/internal/metrics"
)

// Source supplies current metric values; implemented by simres.Host for the
// simulated experiments and by the sysinfo adapter for live mode.
type Source interface {
	Sample(id metrics.ID) float64
}

// CollectFunc is the callback a monitoring module registers with d-mon (the
// paper's register service call). d-mon invokes it at the module's period
// to retrieve current samples: it appends them to dst and returns the
// extended slice, never keeping dst — d-mon reuses the array every poll. It
// runs under d-mon's poll mutex, so it must not call back into PollOnce or
// FilterSamples.
type CollectFunc func(now time.Time, dst []metrics.Sample) []metrics.Sample

// Module is one registered monitoring module.
type Module struct {
	// Name identifies the module (e.g. "CPU_MON").
	Name string
	// Resource is the resource class the module covers; its parameters and
	// control-file settings address the module through this.
	Resource metrics.Resource
	// Collect retrieves the module's current samples.
	Collect CollectFunc
}

// sourceModule builds a standard module that samples the given metric IDs
// from a Source.
func sourceModule(name string, resource metrics.Resource, src Source, ids []metrics.ID) *Module {
	return &Module{
		Name:     name,
		Resource: resource,
		Collect: func(now time.Time, dst []metrics.Sample) []metrics.Sample {
			for _, id := range ids {
				dst = append(dst, metrics.Sample{ID: id, Value: src.Sample(id), Time: now})
			}
			return dst
		},
	}
}

// StandardModules returns the paper's five monitoring modules bound to a
// source: CPU_MON, MEM_MON, DISK_MON, NET_MON and PMC.
func StandardModules(src Source) []*Module {
	return []*Module{
		sourceModule("CPU_MON", metrics.CPU, src,
			[]metrics.ID{metrics.LOADAVG, metrics.RUNQUEUE}),
		sourceModule("MEM_MON", metrics.Memory, src,
			[]metrics.ID{metrics.FREEMEM, metrics.TOTALMEM}),
		sourceModule("DISK_MON", metrics.Disk, src,
			[]metrics.ID{metrics.DISKREADS, metrics.DISKWRITES, metrics.SECTORSREAD,
				metrics.SECTORSWRITTEN, metrics.DISKUSAGE}),
		sourceModule("NET_MON", metrics.Network, src,
			[]metrics.ID{metrics.NETBW, metrics.NETAVAIL, metrics.NETRTT,
				metrics.NETRETRANS, metrics.NETLOST, metrics.NETDELAY}),
		sourceModule("PMC", metrics.PMC, src,
			[]metrics.ID{metrics.CACHE_MISS, metrics.INSTRUCTIONS, metrics.CYCLES}),
	}
}

// PowerModule builds the POWER_MON module for battery-powered hosts. It is
// deliberately not part of StandardModules: the paper uses battery
// monitoring as its example of functionality "available in the remote
// kernel but not directly supported in dproc" that applications deploy
// dynamically at run time via Register.
func PowerModule(src Source) *Module {
	return sourceModule("POWER_MON", metrics.Power, src,
		[]metrics.ID{metrics.BATTERY, metrics.POWERDRAW})
}
