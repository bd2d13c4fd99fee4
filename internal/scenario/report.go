// Report emission. Every run produces two artifacts, named after the
// scenario and written under [output] dir (scenario-out by default, which
// is untracked — no artifact is committed):
//
//   - <name>.json — an array with one object per sweep point: its name
//     ("scenario/<name>/nodes=<n>[/branching=<b>]") and a metrics map of
//     volume, throughput and recovery_* counters.
//   - <name>.md — a human-readable markdown report with a per-sweep-point
//     table of throughput, drops and skips, plus the recovery counters.
//
// Propagation p50/p95/p99 appear — as metrics, table columns and a sample
// count — only for points that carry propagation samples: the model
// backend's analytic distribution does, the sockets backend's points do not
// (its virtual clock is quantised to the tick, so bench/ is where latency on
// real sockets is measured). The decision is read from the point, not from
// the engine's name.
//
// Neither artifact contains wall-clock input: model-engine runs of the same
// runfile are byte-identical, which the determinism test asserts.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// jsonPoint is one sweep point of the JSON artifact.
type jsonPoint struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// EncodeJSON renders the run as the JSON artifact.
func (r *RunResult) EncodeJSON() ([]byte, error) {
	out := make([]jsonPoint, 0, len(r.Points))
	for i := range r.Points {
		p := &r.Points[i]
		m := map[string]float64{
			"nodes":          float64(p.Nodes),
			"duration_s":     p.Duration.Seconds(),
			"reports":        float64(p.Reports),
			"events":         float64(p.Events),
			"deliveries":     float64(p.Deliveries),
			"drops":          float64(p.Drops),
			"skips":          float64(p.Skips),
			"processed":      float64(p.Processed),
			"bytes_sent":     float64(p.BytesSent),
			"throughput_eps": p.Throughput(),
			"publish_eps":    p.PublishRate(),
		}
		if p.Prop.Count > 0 {
			m["prop_p50_ns"] = float64(p.Prop.Quantile(0.50))
			m["prop_p95_ns"] = float64(p.Prop.Quantile(0.95))
			m["prop_p99_ns"] = float64(p.Prop.Quantile(0.99))
		}
		for _, rc := range p.Recovery {
			m["recovery_"+rc.Name] = float64(rc.Value)
		}
		name := fmt.Sprintf("scenario/%s/nodes=%d", r.Scenario.Name, p.Nodes)
		if p.Branching > 0 {
			// Relay-tree sweep points carry the branching factor in both the
			// name (so flat and tree runs of the same node count stay distinct
			// rows) and the metrics map (for tooling that plots by axis).
			name += fmt.Sprintf("/branching=%d", p.Branching)
			m["branching"] = float64(p.Branching)
		}
		out = append(out, jsonPoint{Name: name, Metrics: m})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// EncodeReport renders the markdown report.
func (r *RunResult) EncodeReport() []byte {
	s := r.Scenario
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Scenario report: %s\n\n", s.Name)
	fmt.Fprintf(&sb, "Runfile `%s` — engine **%s**, seed %d, %s virtual per sweep point (tick %s).\n\n",
		s.Path, s.Engine, s.Seed, fmtDuration(s.Duration), fmtDuration(s.Tick))

	fmt.Fprintf(&sb, "Load: %.4g events/s per node × %d B payload", s.Load.Rate, s.Load.Payload)
	if s.Load.BurstEvery > 0 {
		fmt.Fprintf(&sb, ", bursting ×%.3g for %s every %s", s.Load.BurstFactor, fmtDuration(s.Load.BurstLen), fmtDuration(s.Load.BurstEvery))
	}
	fmt.Fprintf(&sb, "; filters: %s", s.Filters.Mode)
	switch s.Filters.Mode {
	case FilterPeriod:
		fmt.Fprintf(&sb, " (%s)", fmtDuration(s.Filters.Period))
	case FilterDiff:
		fmt.Fprintf(&sb, " (%.4g%%)", s.Filters.DiffPct)
	}
	if s.Churn.Fraction > 0 {
		fmt.Fprintf(&sb, "; churn: %.4g%% every %s, down %s", s.Churn.Fraction*100, fmtDuration(s.Churn.Interval), fmtDuration(s.Churn.Down))
	}
	sb.WriteString(".\n\n")

	// The headline table: one row per sweep point. The overlay column only
	// appears when the run sweeps branching factors, the propagation columns
	// only when the points carry propagation samples.
	hasBranching, hasProp := false, false
	for i := range r.Points {
		hasBranching = hasBranching || r.Points[i].Branching > 0
		hasProp = hasProp || r.Points[i].Prop.Count > 0
	}
	cols := []string{"nodes"}
	if hasBranching {
		cols = append(cols, "overlay")
	}
	cols = append(cols, "published", "deliveries", "throughput (ev/s)", "drops", "skips")
	if hasProp {
		cols = append(cols, "prop p50", "prop p95", "prop p99")
	}
	sb.WriteString("## Results\n\n")
	for _, c := range cols {
		fmt.Fprintf(&sb, "| %s ", c)
	}
	sb.WriteString("|\n")
	for _, c := range cols {
		fmt.Fprintf(&sb, "|%s:", strings.Repeat("-", len(c)+1))
	}
	sb.WriteString("|\n")
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(&sb, "| %d ", p.Nodes)
		if hasBranching {
			overlay := "flat"
			if p.Branching > 0 {
				overlay = fmt.Sprintf("tree-b%d", p.Branching)
			}
			fmt.Fprintf(&sb, "| %s ", overlay)
		}
		fmt.Fprintf(&sb, "| %d | %d | %.1f | %d | %d |",
			p.Reports+p.Events, p.Deliveries, p.Throughput(), p.Drops, p.Skips)
		if hasProp {
			fmt.Fprintf(&sb, " %s | %s | %s |",
				fmtDuration(time.Duration(p.Prop.Quantile(0.50))),
				fmtDuration(time.Duration(p.Prop.Quantile(0.95))),
				fmtDuration(time.Duration(p.Prop.Quantile(0.99))))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\n")

	// Per-point detail: volume and recovery counters.
	for i := range r.Points {
		p := &r.Points[i]
		if p.Branching > 0 {
			fmt.Fprintf(&sb, "## nodes = %d, overlay = tree-b%d\n\n", p.Nodes, p.Branching)
		} else {
			fmt.Fprintf(&sb, "## nodes = %d\n\n", p.Nodes)
		}
		fmt.Fprintf(&sb, "- steps: %d (%s of %s ticks)\n", p.Steps, fmtDuration(p.Duration), fmtDuration(s.Tick))
		fmt.Fprintf(&sb, "- monitoring reports published: %d\n", p.Reports)
		fmt.Fprintf(&sb, "- workload events published: %d\n", p.Events)
		fmt.Fprintf(&sb, "- deliveries: %d (%d processed by subscribers)\n", p.Deliveries, p.Processed)
		fmt.Fprintf(&sb, "- drops (inbox overflow): %d, skips (down/partitioned targets): %d\n", p.Drops, p.Skips)
		fmt.Fprintf(&sb, "- bytes on the wire: %d\n", p.BytesSent)
		if p.Prop.Count > 0 {
			fmt.Fprintf(&sb, "- propagation samples: %d\n", p.Prop.Count)
		}
		interesting := false
		for _, rc := range p.Recovery {
			if rc.Value > 0 {
				interesting = true
				break
			}
		}
		if interesting {
			sb.WriteString("- recovery counters:")
			for _, rc := range p.Recovery {
				if rc.Value > 0 {
					fmt.Fprintf(&sb, " %s=%d", rc.Name, rc.Value)
				}
			}
			sb.WriteString("\n")
		}
		sb.WriteString("\n")
	}
	return []byte(sb.String())
}

// WriteArtifacts writes both artifacts to the scenario's output paths,
// creating the output directory if needed, and returns the paths written.
func (r *RunResult) WriteArtifacts() (jsonPath, reportPath string, err error) {
	s := r.Scenario
	jsonPath, reportPath = s.JSONPath(), s.ReportPath()
	if s.Output.Dir != "" {
		if err := os.MkdirAll(s.Output.Dir, 0o755); err != nil {
			return "", "", fmt.Errorf("scenario: output dir: %w", err)
		}
	}
	buf, err := r.EncodeJSON()
	if err != nil {
		return "", "", err
	}
	if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(reportPath, r.EncodeReport(), 0o644); err != nil {
		return "", "", err
	}
	return jsonPath, reportPath, nil
}
