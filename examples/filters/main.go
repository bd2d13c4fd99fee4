// Dynamic E-code filters: compile the paper's Figure 3 filter, run it
// against live monitoring records, and deploy it across a cluster through
// the control channel — then watch it crush the monitoring traffic.
//
// Run with: go run ./examples/filters
package main

import (
	"fmt"
	"log"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/dmon"
	"dproc/internal/ecode"
	"dproc/internal/metrics"
)

// figure3 is the filter from the paper, verbatim: send loadavg only above
// 2, disk+memory only when the disk is busy AND memory is short, and cache
// misses only when they are rising.
const figure3 = `
{
  int i = 0;
  if(input[LOADAVG].value > 2){
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if(input[DISKUSAGE].value > 10000 &&
     input[FREEMEM].value < 50e6){
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

func main() {
	// --- 1. Compile locally: parse, type-check and generate the filter's
	// code, as each receiving host does with a deployed source.
	filter, err := ecode.Compile(figure3, dmon.FilterSpec())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== Figure 3 filter compiled (%d bytes of source) ===\n", len(filter.Source()))

	// --- 2. Run it directly against a hand-built record set.
	env := filter.NewEnv(int(metrics.NumIDs))
	env.Input = make([]ecode.Record, metrics.NumIDs)
	env.Input[metrics.LOADAVG] = ecode.Record{ID: int64(metrics.LOADAVG), Value: 3.4}
	env.Input[metrics.DISKUSAGE] = ecode.Record{ID: int64(metrics.DISKUSAGE), Value: 22_000}
	env.Input[metrics.FREEMEM] = ecode.Record{ID: int64(metrics.FREEMEM), Value: 40e6}
	env.Input[metrics.CACHE_MISS] = ecode.Record{ID: int64(metrics.CACHE_MISS), Value: 9_000, LastSent: 9_500}
	if _, err := filter.Run(nil, env); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== direct execution: %d of %d records pass ===\n", env.OutCount(), 4)
	for i := 0; i < env.OutCount(); i++ {
		rec := env.Output[i]
		fmt.Printf("  %-10s value=%g\n", metrics.ID(rec.ID), rec.Value)
	}

	// --- 3. Deploy it cluster-wide over the control channel and compare
	// monitoring traffic with and without it.
	cluster, err := core.NewSimCluster(4, clock.NewReal(), 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	pollRounds := func(rounds int) uint64 {
		var before uint64
		for _, n := range cluster.Nodes {
			before += n.MonitoringChannel().Stats().EventsSent
		}
		for i := 0; i < rounds; i++ {
			if _, _, err := cluster.PollAll(); err != nil {
				log.Fatal(err)
			}
			time.Sleep(1100 * time.Millisecond) // let the 1s periods re-arm
		}
		var after uint64
		for _, n := range cluster.Nodes {
			after += n.MonitoringChannel().Stats().EventsSent
		}
		return after - before
	}

	fmt.Println("\n=== deploying the filter cluster-wide ===")
	unfiltered := pollRounds(2)
	// node0 broadcasts the filter to every other node, and installs it
	// locally through its own control file.
	if err := cluster.Nodes[0].DMon().SendControl("", "filter all\n"+figure3); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Nodes[0].FS().WriteFile("cluster/node0/control", "filter all\n"+figure3); err != nil {
		log.Fatal(err)
	}
	// Wait for delivery.
	deadline := time.Now().Add(3 * time.Second)
	for {
		all := true
		for _, n := range cluster.Nodes {
			n.DMon().PollChannels()
			if !n.DMon().HasFilter() {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("filter deployment did not reach every node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	filtered := pollRounds(2)
	fmt.Printf("  events published in 2 rounds without filter: %d\n", unfiltered)
	fmt.Printf("  events published in 2 rounds with filter:    %d\n", filtered)
	fmt.Printf("  reduction: %.0f%%\n", 100*(1-float64(filtered)/float64(unfiltered)))
}
