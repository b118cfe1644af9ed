// Package stats provides the small numeric and formatting helpers shared by
// the experiment harness: geometric means, ratios, percentages, and
// fixed-width text tables.
//
// The geometric mean comes in two flavours with an explicit contract
// split: Geomean panics on non-positive input — appropriate for test and
// benchmark code where a non-positive speedup is an assertion failure —
// while GeomeanErr returns the broken measurement as an error, which
// library code (the experiments sweeps) uses so one degenerate cell surfaces
// as a run failure instead of crashing a whole parallel sweep.
//
// Table renders aligned monospace tables; it is the single formatter behind
// every figure and table the harness prints, which is what makes sweep
// output byte-comparable across runs and worker counts.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeomeanErr returns the geometric mean of xs. It returns 0 for an empty
// slice, and an error naming the offending value if any element is
// non-positive (a geometric mean is undefined there, and in this codebase a
// non-positive speedup or energy ratio always means a broken measurement
// upstream).
func GeomeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: geomean of non-positive value %v at index %d", x, i)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b float64) float64 {
	//lint:allow floateq exact-zero divisor sentinel; any nonzero b, however tiny, is a meaningful denominator
	if b == 0 {
		return 0
	}
	return a / b
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf formats each cell with fmt.Sprint for mixed-type convenience.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.2f", v)
		default:
			out[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(out...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
