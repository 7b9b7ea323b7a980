// Package stats provides the small measurement toolkit used across the
// reproduction: misprediction accounting and plain-text table rendering
// for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Mispredict accounting ------------------------------------------------

// BranchStats accumulates the primary accuracy metrics of a simulation.
type BranchStats struct {
	Instructions  uint64
	CondBranches  uint64
	Mispredicts   uint64
	UncondCount   uint64
	SecondLevelOK uint64 // correct predictions provided by LLBP/LLBP-X
	Overrides     uint64 // final direction differed from the fast (1-cycle) component
}

// MPKI returns mispredictions per kilo-instruction.
func (s BranchStats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Instructions) * 1000
}

// Accuracy returns the fraction of conditional branches predicted
// correctly.
func (s BranchStats) Accuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.CondBranches)
}

// Add merges o into s.
func (s *BranchStats) Add(o BranchStats) {
	s.Instructions += o.Instructions
	s.CondBranches += o.CondBranches
	s.Mispredicts += o.Mispredicts
	s.UncondCount += o.UncondCount
	s.SecondLevelOK += o.SecondLevelOK
	s.Overrides += o.Overrides
}

// Reduction returns the relative MPKI reduction of x over base, as a
// fraction in [-inf, 1]: 0.12 means 12% fewer mispredictions.
func Reduction(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - x) / base
}

// Table rendering --------------------------------------------------------

// Table renders rows of labelled values as aligned plain text, the output
// format of every experiment in cmd/experiments.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells with
// four significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns the formatted cells of row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e12:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// GeoMean returns the geometric mean of xs, treating values <= 0 as 1e-12
// to stay defined. It is the aggregation the paper uses for speedups.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
