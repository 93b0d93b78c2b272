// Package stats provides the small statistics toolkit the benchmark
// harness uses to print the paper's tables and figures: percentiles,
// boxplot summaries, CDFs, and fixed-width table rendering.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Box is a five-number boxplot summary, the shape of the paper's
// Figure 4(a) and Figure 5 plots.
type Box struct {
	Min, Q1, Median, Q3, Max float64
}

// BoxplotOf summarizes xs.
func BoxplotOf(xs []float64) Box {
	return Box{
		Min:    Percentile(xs, 0),
		Q1:     Percentile(xs, 25),
		Median: Percentile(xs, 50),
		Q3:     Percentile(xs, 75),
		Max:    Percentile(xs, 100),
	}
}

// String renders the box compactly.
func (b Box) String() string {
	return fmt.Sprintf("min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f",
		b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// CDF returns the empirical CDF of xs evaluated at each sorted sample:
// (sorted values, cumulative fraction 0..1].
func CDF(xs []float64) (values, cum []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	values = append([]float64(nil), xs...)
	sort.Float64s(values)
	cum = make([]float64, len(values))
	for i := range values {
		cum[i] = float64(i+1) / float64(len(values))
	}
	return values, cum
}

// CDFAt returns the empirical CDF of xs evaluated at x.
func CDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Table renders rows with aligned columns to w. The first row is the
// header and is underlined.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row where each cell is fmt.Sprint'ed.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	if len(t.rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range t.rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(row []string) {
		parts := make([]string, len(row))
		for i, cell := range row {
			parts[i] = cell + strings.Repeat(" ", widths[i]-len(cell))
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.rows[0])
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.rows[1:] {
		writeRow(row)
	}
}
