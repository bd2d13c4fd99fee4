package figures

import (
	"fmt"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/workload"
)

// Figure4Live is the honest-hardware variant of Figure 4: it runs the real
// linpack kernel on this machine while a real dproc cluster polls in the
// background, and reports the measured Mflops. On modern hardware the
// monitoring perturbation is far below linpack's run-to-run noise — which
// is itself a faithful reproduction of the paper's claim that dproc's CPU
// overhead is "almost negligible", just on a machine ~100x faster.
func Figure4Live(maxNodes, solvesPerPoint, matrixSize int) (*Figure, error) {
	if maxNodes <= 0 {
		maxNodes = 8
	}
	if solvesPerPoint <= 0 {
		solvesPerPoint = 5
	}
	if matrixSize <= 0 {
		matrixSize = 400
	}
	f := &Figure{
		ID:     "fig4-live",
		Title:  "CPU perturbation, live mode (real linpack, real background polling)",
		XLabel: "nodes",
		YLabel: "measured Mflops",
		Notes: []string{
			fmt.Sprintf("linpack n=%d, %d solves per point; modern-host absolute values", matrixSize, solvesPerPoint),
		},
	}
	measure := func() (float64, error) {
		best := 0.0
		for s := 0; s < solvesPerPoint; s++ {
			res, err := workload.Linpack(matrixSize, int64(s+1))
			if err != nil {
				return 0, err
			}
			// Best-of-N suppresses scheduler noise, as linpack reports do.
			if res.Mflops > best {
				best = res.Mflops
			}
		}
		return best, nil
	}
	// Idle, then 2 and 4 nodes where they fit below maxNodes, then maxNodes.
	var sizes []int
	for _, n := range []int{0, 2, 4} {
		if n < maxNodes {
			sizes = append(sizes, n)
		}
	}
	sizes = append(sizes, maxNodes)
	for _, v := range Variants() {
		series := Series{Label: v.String()}
		for _, n := range sizes {
			var mflops float64
			var err error
			if n == 0 {
				mflops, err = measure()
			} else {
				var cluster *core.SimCluster
				cluster, err = core.NewSimCluster(n, clock.NewReal(), 20030623, 0)
				if err != nil {
					return nil, err
				}
				v.apply(cluster)
				for _, node := range cluster.Nodes {
					node.StartPolling()
				}
				mflops, err = measure()
				cluster.Close()
			}
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{X: float64(n), Y: mflops})
		}
		f.Series = append(f.Series, series)
	}
	return f, nil
}
