// Command bench is dproc's benchmark: five workloads, each a real
// loopback-TCP cluster formed in this process, driven closed loop with every
// output checked. BENCHMARK.json at the repository root names the command,
// the workloads and every metric with its unit, direction and regression
// bound; bench/README.md explains the choices.
//
//	go run ./bench                                   every workload, untraced
//	go run ./bench -workload node-pair -seed 7       one workload
//	go run ./bench -workload node-pair -trace 1      its traced (per-layer) run
//	go run ./bench -out set.json …                   also append the run to a result set
//	go run ./bench -compare a.json b.json            judge set b against set a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or \"all\" (each in its own process)")
		seed    = flag.Int64("seed", 1, "seed for payload bytes, host models and report values")
		seconds = flag.Float64("seconds", 16, "length of the timed section")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
		out     = flag.String("out", "", "result-set JSON file to append this run to")
		outDir  = flag.String("dir", "bench/out", "directory for trace files and temporary data")
		specAt  = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json (bounds for -compare)")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return runCompare(*specAt, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll()
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	p := runParams{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir, setups: defaultSetups, warmup: defaultWarmup}
	run := w.run
	if p.traced {
		run = w.trace
	}
	res, err := run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printResult(w.name, res)
	if *out != "" {
		if err := appendRun(*out, w.name, p, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
		}
		return 1
	}
	return 0
}

// runAll runs every workload as its own process with this invocation's
// flags: each is one fresh cluster, and peak RSS is a per-process figure.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// printResult writes one line per metric — workload, name, value, unit —
// and then the contract's single JSON line, which must stay last.
func printResult(workload string, res *runResult) {
	line := func(kind string, ms map[string]Metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-15s %-7s %-28s %16.6f %s\n", workload, kind, n, ms[n].Value, ms[n].Unit)
		}
	}
	line("metric", res.Metrics)
	line("extra", res.Extra)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(last))
}
