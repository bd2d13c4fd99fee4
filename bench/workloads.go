package main

import "dproc/internal/kecho"

// workload is one entry of the benchmark: a fresh cluster, driven closed
// loop, every output checked.
type workload struct {
	name string
	// run performs one untraced run and returns the end-to-end metrics.
	run func(p runParams) (*runResult, error)
	// trace performs one traced run and returns the per-layer metrics.
	trace func(p runParams) (*runResult, error)
}

// workloads is the benchmark, in BENCHMARK.json's order. Why each exists is
// written there and, at length, in bench/README.md.
var workloads = []workload{
	{"node-pair", runNodePair, traceNodePair},
	meshWorkload("fanout-small"),
	meshWorkload("fanout-stalled"),
	meshWorkload("relay-large"),
	{"history-rw", runHistory, traceHistory},
}

func meshWorkload(name string) workload {
	return workload{
		name:  name,
		run:   func(p runParams) (*runResult, error) { return runMesh(name, p) },
		trace: func(p runParams) (*runResult, error) { return traceMesh(name, p) },
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// meshSpecs are the three raw-kecho workloads; the README justifies the sizes.
var meshSpecs = map[string]meshSpec{
	// Per-event fixed cost: 8 enqueues per publish, batch coalescing, parse,
	// inbox copy. Default transport (epoll read reactor), polled dispatch —
	// the dprocd defaults.
	"fanout-small": {subs: 8, payload: 64, window: 512, dispatch: kecho.Polled},
	// The same fan-out with the overflow path live beside the healthy one,
	// over the per-connection fallback readers.
	"fanout-stalled": {subs: 8, payload: 64, window: 512, dispatch: kecho.EventDriven, fabric: true, stalled: true},
	// Bytes, not events: 5 KiB payloads (paper Fig. 7) down a depth-3
	// branching-2 relay tree of 8 members.
	"relay-large": {subs: 7, payload: 5 << 10, window: 256, dispatch: kecho.EventDriven, branching: 2},
}
