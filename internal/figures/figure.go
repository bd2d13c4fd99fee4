// Package figures regenerates every figure in the paper's evaluation
// (Section 4): the microbenchmarks of dproc overhead (Figures 4–8) and the
// SmartPointer stream-management experiments (Figures 9–11), plus two
// ablation rows of design decisions the paper argues for (DESIGN.md §4).
// Each generator returns a Figure holding labelled series that cmd/figures
// renders as aligned tables or CSV, and that the package's tests assert
// shape properties over (who wins, where the knees fall).
package figures

import (
	"fmt"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Y returns the Y value at the first point with the given X, and whether it
// exists.
func (s *Series) Y(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Last returns the final point of the series.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Figure is one regenerated evaluation figure.
type Figure struct {
	ID     string // e.g. "fig6"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes record modeling caveats and calibration constants.
	Notes []string
}

// Find returns the series with the given label.
func (f *Figure) Find(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// Table renders the figure as an aligned text table: one row per X value,
// one column per series.
func (f *Figure) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	// Collect the X axis as the union of series X values, in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.Y(x); ok {
				row = append(row, trimFloat(y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteString("\n")
		if ri == 0 {
			for i := range row {
				sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "(y: %s)\n", f.YLabel)
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, s := range f.Series {
		sb.WriteString("," + strings.ReplaceAll(s.Label, ",", ";"))
	}
	sb.WriteString("\n")
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(&sb, "%g", x)
		for _, s := range f.Series {
			if y, ok := s.Y(x); ok {
				fmt.Fprintf(&sb, ",%g", y)
			} else {
				sb.WriteString(",")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Variant labels the three monitoring configurations compared throughout
// the microbenchmarks.
type Variant int

// Monitoring configurations from Section 4.1.
const (
	// Period1s updates every second (the default).
	Period1s Variant = iota
	// Period2s updates every two seconds.
	Period2s
	// Differential sends only on a >= 15% change from the last sent value.
	Differential
	NumVariants
)

// String names the variant as in the paper's legends.
func (v Variant) String() string {
	switch v {
	case Period1s:
		return "update period=1s"
	case Period2s:
		return "update period=2s"
	case Differential:
		return "differential filter"
	}
	return "variant(?)"
}

// Variants lists all three configurations in legend order.
func Variants() []Variant { return []Variant{Period1s, Period2s, Differential} }
