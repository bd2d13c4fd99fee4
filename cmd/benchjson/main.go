// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of results, echoing the raw text through to stdout so it still reads
// like a normal benchmark run. Each "BenchmarkName  N  X ns/op [extra unit]…"
// line becomes one entry; custom b.ReportMetric units (wire-bytes/iter,
// events/sim-sec, …) land in the metrics map.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkQueryFanout' . | benchjson -out BENCH_query.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches "BenchmarkFoo/sub-8   123   45.6 ns/op  7.8 extra/unit".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("out", "", "write the JSON array to this file ('' = stdout only)")
	flag.Parse()

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parse(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}

// parse extracts one Result from a benchmark output line. Measurements come
// in "<value> <unit>" pairs; ns/op fills the dedicated field, everything
// else (MB/s, B/op, allocs/op, custom ReportMetric units) goes to Metrics.
func parse(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: strings.TrimPrefix(m[1], "Benchmark"), Iters: iters}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		if fields[i+1] == "ns/op" {
			r.NsPerOp = val
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[fields[i+1]] = val
	}
	return r, true
}
