// Command figures regenerates the paper's evaluation figures (4–11) and two
// ablation rows (diff, p2p) and prints them as aligned tables (or CSV). Each figure's experiment runs on
// the reproduction's real channel mesh or the deterministic stream
// simulator; see DESIGN.md for the per-experiment index and EXPERIMENTS.md
// for the recorded paper-versus-measured comparison.
//
// Usage:
//
//	figures            # all figures, table output
//	figures -fig 10    # one figure
//	figures -csv       # CSV instead of tables
//	figures -nodes 8 -iters 100 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dproc/internal/figures"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: 4,5,6,7,8,9a,9b,10,11, the ablation rows diff,p2p, or all")
		csv   = flag.Bool("csv", false, "emit CSV instead of tables")
		nodes = flag.Int("nodes", 8, "max cluster size for figures 4-8")
		iters = flag.Int("iters", 100, "poll iterations per measurement (figures 4-8)")
		quick = flag.Bool("quick", false, "shorter runs (smaller clusters, shorter streams)")
		live  = flag.Bool("live", false, "also run figure 4 in live mode (real linpack + real polling)")
	)
	flag.Parse()

	if *quick {
		*nodes = 4
		*iters = 20
	}
	streamDur := 2000 * time.Second
	pointDur := 48 * time.Second
	if *quick {
		streamDur = 300 * time.Second
		pointDur = 24 * time.Second
	}

	type gen struct {
		id  string
		run func() (*figures.Figure, error)
	}
	gens := []gen{
		{"4", func() (*figures.Figure, error) { return figures.Figure4(*nodes, *iters/3+1) }},
		{"4-live", func() (*figures.Figure, error) {
			if !*live && *fig != "4-live" {
				return nil, nil // opt-in: runs real linpack for many seconds
			}
			return figures.Figure4Live(*nodes, 5, 400)
		}},
		{"5", func() (*figures.Figure, error) { return figures.Figure5(*nodes, *iters/3+1) }},
		{"6", func() (*figures.Figure, error) { return figures.Figure6(*nodes, *iters) }},
		{"7", func() (*figures.Figure, error) { return figures.Figure7(*nodes, *iters) }},
		{"8", func() (*figures.Figure, error) { return figures.Figure8(*nodes, *iters) }},
		{"9a", func() (*figures.Figure, error) { return figures.Figure9a(streamDur, streamDur/40), nil }},
		{"9b", func() (*figures.Figure, error) { return figures.Figure9b(9, pointDur), nil }},
		{"10", func() (*figures.Figure, error) { return figures.Figure10(pointDur), nil }},
		{"11", func() (*figures.Figure, error) { return figures.Figure11(pointDur), nil }},
		{"diff", func() (*figures.Figure, error) { return figures.FigureDiffThreshold(*nodes, *iters/3+1) }},
		{"p2p", func() (*figures.Figure, error) { return figures.FigureP2PvsCentral(*nodes, 10) }},
	}

	ran := false
	for _, g := range gens {
		if *fig != "all" && *fig != g.id {
			continue
		}
		ran = true
		start := time.Now()
		f, err := g.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", g.id, err)
			os.Exit(1)
		}
		if f == nil { // disabled optional figure (e.g. 4-live without -live)
			continue
		}
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f.Table())
			fmt.Printf("[regenerated in %v]\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q (have 4,5,6,7,8,9a,9b,10,11,diff,p2p,all)\n", *fig)
		os.Exit(2)
	}
}
