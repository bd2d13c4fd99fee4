// Command dprocsim executes scenario runfiles: declarative large-scale
// dproc experiments (topology sweeps, load profiles, churn and fault
// schedules) that emit <name>.json and <name>.md per run, under
// scenario-out/ unless the runfile or -out says otherwise. See
// internal/scenario for the runfile format and examples/scenarios/ for
// runnable experiments.
//
// Usage:
//
//	dprocsim [flags] <runfile.toml> [more runfiles...]
//
//	-check     parse and validate only; run nothing
//	-out DIR   override the runfile's [output] dir
//	-seed N    override the runfile's seed
//	-quiet     suppress progress lines
package main

import (
	"flag"
	"fmt"
	"os"

	"dproc/internal/scenario"
)

func main() {
	check := flag.Bool("check", false, "parse and validate the runfile(s) without running")
	out := flag.String("out", "", "override the runfile's output directory")
	seed := flag.Int64("seed", 0, "override the runfile's seed (0 keeps the runfile's value)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dprocsim [flags] <runfile.toml> [more runfiles...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	exit := 0
	for _, path := range flag.Args() {
		if err := runOne(path, *check, *out, *seed, logf); err != nil {
			fmt.Fprintf(os.Stderr, "dprocsim: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func runOne(path string, check bool, outDir string, seed int64, logf func(string, ...any)) error {
	s, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	if outDir != "" {
		s.Output.Dir = outDir
	}
	if seed != 0 {
		s.Seed = seed
	}
	if check {
		fmt.Printf("%s: ok (scenario %q, engine %s, %d sweep point(s), %d scheduled action(s))\n",
			path, s.Name, s.Engine, len(s.Topology.Nodes), len(s.Schedule))
		return nil
	}
	res, err := scenario.Run(s, logf)
	if err != nil {
		return err
	}
	jsonPath, reportPath, err := res.WriteArtifacts()
	if err != nil {
		return err
	}
	fmt.Printf("%s: wrote %s and %s\n", path, jsonPath, reportPath)
	return nil
}
